# The session of SESSION_WIRE and SESSION_VALUES, the GUTI session after it
# (GUTI_SESSION_WIRE and GUTI_SESSION_VALUES), and CONSTANTS' test-KEM
# values, are derived by tests/test_golden.py from an independent oracle's
# vectors and the labelled seeded draws, with hashlib alone; the other
# CONSTANTS are that oracle's. Do not edit by hand.
CONSTANTS = {
    'kem_seed0_sk': bytes.fromhex('4a5807416f6956d5a7d386931de910bb2337313b43f62e5e01b0d4a718327661'),
    'kem_seed0_pk': bytes.fromhex('7a5a339c6da9219d46b80c0077f9546efa8cbd81b7a101be50a07ae9fbca491f'),
    'kem_seed1_ct': bytes.fromhex('eaf5471ba5f06564b383de8271167653309a7a89f22bbd8e8fc60a9b8c5d5666'),
    'kem_seed1_k': bytes.fromhex('094ee3a865289f24a7f9434343ba21e19dc248ded9663fc489bd896cb65c35d6'),
    'f5_zero': bytes.fromhex('b487e6b7a056c3ec869431728e16cd46c792a9d76e0867e6bafc635d720004c3'),
    'kdf_empty': bytes.fromhex('df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119'),
    'hash_h_zero_zero': bytes.fromhex('2d57a6b3f09c41602c404704dbb3cb7231ec9e9bdfe1eae35012b0f4ea5c4e8c'),
}

SESSION_WIRE = {
    'id-request': bytes.fromhex('0101'),
    'id-response': bytes.fromhex('0220eaf5471ba5f06564b383de8271167653309a7a89f22bbd8e8fc60a9b8c5d566636f449bfdc808398dc430a7d4995a4d9405b86cbda6840c84f2d50c8ac566380b528a81be5e858599141cf0b7c9c8fdd65fadd1fbbb90768b4dbee9fd0e96d23d503b93cb2632600f110'),
    'sn-hn-ident': bytes.fromhex('0320eaf5471ba5f06564b383de8271167653309a7a89f22bbd8e8fc60a9b8c5d566636f449bfdc808398dc430a7d4995a4d9405b86cbda6840c84f2d50c8ac566380b528a81be5e858599141cf0b7c9c8fdd65fadd1fbbb90768b4dbee9fd0e96d23d503b93cb26326789b1af96f3a25aaf55a89cbfa00e144'),
    'auth-vector': bytes.fromhex('042e3d0d48b7cda719d69f7c68c299da3c605dcd4ba68aa47f50eb31b5a4f0aef33abbd9b6518f645c53df22343d0e0e5a6d2ee407b9b81cb8a17736c2cbd00b8515692f41db98cafcd416694b468409d287b84af6d3481f6ed95e490120d951808751b95134bbf31e2792417b2968a963d1dc3e6da966a90f68cb0838d8'),
    'challenge': bytes.fromhex('052e3d0d48b7cda719d69f7c68c299da3c605dcd4ba68aa47f50eb31b5a4f0aef30120d951808751b95134bbf31e2792417b2968a963d1dc3e6da966a90f68cb0838d8'),
    'response': bytes.fromhex('065a1e062087966c0643da9927eb4e0bca'),
    'confirm': bytes.fromhex('07'),
    'guti-assign': bytes.fromhex('0ad66d19e45e7c0cf99e3a03051cbd1c1f61de7c0a'),
    'abort': bytes.fromhex('0c'),
}

SESSION_VALUES = {
    'k': bytes.fromhex('7ea7c29de0566b2eac41be2babe76531187a683739b64c34948c4ba498b223ea'),
    'sk_h': bytes.fromhex('4a5807416f6956d5a7d386931de910bb2337313b43f62e5e01b0d4a718327661'),
    'pk_h': bytes.fromhex('7a5a339c6da9219d46b80c0077f9546efa8cbd81b7a101be50a07ae9fbca491f'),
    'sk_u': bytes.fromhex('51e829d9d0d3f3e98612a9a0362172d8c30a603d4e84b929eb1325854bd72c18'),
    'pk_u': bytes.fromhex('ba7c19e6a7f8f120907c6be90847ab079141e73b7c47b42abda83491a63796aa'),
    'k_s1': bytes.fromhex('094ee3a865289f24a7f9434343ba21e19dc248ded9663fc489bd896cb65c35d6'),
    'k_star': bytes.fromhex('02c49cbb08de7714c30ed83f183380f5255ad21e947818ef872f1f9d767ed75b'),
    'res_star': bytes.fromhex('5a1e062087966c0643da9927eb4e0bca'),
    'k_seaf': bytes.fromhex('7504a61c2b2e8b4cb3512386268336d4cdbdd1105ba590720fb38b4c46dc09c9'),
    'k_s_next': bytes.fromhex('93c5ce1392b8534f840863619abc9994b816c10c44a681bd2cf67a8a0f3cbd1b'),
}

# the GUTI session's guti-id, sn-hn-guti and auth-vector: its M, 48 bytes,
# seals K_seaf alone
GUTI_SESSION_WIRE = {
    'guti-id': bytes.fromhex('08ac6f8d7f'),
    'sn-hn-guti': bytes.fromhex('09090000010100000000f1c1cc289ece9490d21ef30d558802d34fe1feb37257d6e9a0b0b0337f39e4ee8920f5bb7b79e96dcf7d6d406eebb6f476'),
    'auth-vector': bytes.fromhex('048f7fa0836365a6275d06078dc1d5b7a1d6f3c6b9aaf0ac2a1937fedab8a10dcc30730a593848caf28a4ad75f3ba38ea1c1cc5bf46e0535693474024d4ffd46412eb1ec5c903696d0de9ee027a943f020bf00'),
}

GUTI_SESSION_VALUES = {
    'm_plaintext': bytes.fromhex('1113a9f06df1df1a0ca446fd107d8dcf36ea4809dc6ab7fab703935718d3462e'),
}
