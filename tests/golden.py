# generated by an independent oracle script; do not edit by hand. SESSION_WIRE,
# and SESSION_VALUES' k_star, res_star, k_seaf and k_s_next, are derived from
# that oracle's vectors by tests/test_golden.py.
CONSTANTS = {
    'kem_seed0_sk': bytes.fromhex('2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb'),
    'kem_seed0_pk': bytes.fromhex('da9fc1a3c567b81076977ee9adb7a83482c6fbaf9bbfaf0d50dd837ef15442d3'),
    'kem_seed1_ct': bytes.fromhex('2905e7f7863ab6965a31a4af435917c7692a46b13526a0706c2274cab2470adf'),
    'kem_seed1_k': bytes.fromhex('e5ea3de349c5923d44cd918f694b442e14f5707d730ede024f668cb8d52d9674'),
    'f5_zero': bytes.fromhex('b487e6b7a056c3ec869431728e16cd46c792a9d76e0867e6bafc635d720004c3'),
    'kdf_empty': bytes.fromhex('df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119'),
    'hash_h_zero_zero': bytes.fromhex('2d57a6b3f09c41602c404704dbb3cb7231ec9e9bdfe1eae35012b0f4ea5c4e8c'),
}

SESSION_WIRE = {
    'id-request': bytes.fromhex('0101'),
    'id-response': bytes.fromhex('022064af77cf4efc95ceed9df59465aeb158a75266342e87eaf75727fe7848733d9d41790759ff45831f8afb83577e1e23c51cf2c5331a8344f46732c99d341f1fd7f0b39796412caf2cc4b1da08a04505d15b5e87393a62ed63842082a998e54a94804e7f8d3f62174f0a44b2fee7049ed0e8c00a686e2e6578616d706c65'),
    'sn-hn-ident': bytes.fromhex('032064af77cf4efc95ceed9df59465aeb158a75266342e87eaf75727fe7848733d9d41790759ff45831f8afb83577e1e23c51cf2c5331a8344f46732c99d341f1fd7f0b39796412caf2cc4b1da08a04505d15b5e87393a62ed63842082a998e54a94804e7f8d3f62174f0a44b2fee7049ed0e8c09a76a6f7fcb7d22ba1bbd0541d72ad95'),
    'auth-vector': bytes.fromhex('04b49622571cf2f58a79d00ee4e16c63ffb1f396c3d96699badcc20953243a1bc245d8f0db11618ba2c7cbc213cd06d9ec4457f31192856463db4cda0514d5f3bc07dcdc16a2a03b6d8704439fb3fd813f22fa56a14a71b02e792e91a30e53855b0f78bf12c40201202494d4c90a35efe5dccb9c6da61e402aea07967cfcb36ce127c216f8aa955932'),
    'challenge': bytes.fromhex('05b49622571cf2f58a79d00ee4e16c63ffb1f396c3d96699badcc20953243a1bc201202494d4c90a35efe5dccb9c6da61e402aea07967cfcb36ce127c216f8aa955932'),
    'response': bytes.fromhex('06edad0214e0aa31dcb491b305c0ced2c3'),
    'confirm': bytes.fromhex('07'),
    'guti-id': bytes.fromhex('08cb06e2181fad06ab0c868a71e919dfdd'),
    'sn-hn-guti': bytes.fromhex('0914696d73692d303031303130303030303030303031059e5596d20cd3c3ec03f20628715f80607f7464149053ba78397bc0cb92ad4f9a76a6f7fcb7d22ba1bbd0541d72ad95'),
    'guti-assign': bytes.fromhex('0acb06e2181fad06ab0c868a71e919dfdd'),
    'secure-envelope': bytes.fromhex('0b21ddcd998209c137b882318d430c73c1c8cf8b7d51faa7dd2d9ee674fb247bb03a25'),
    'abort': bytes.fromhex('0c'),
}

SESSION_VALUES = {
    'k': bytes.fromhex('2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb'),
    'sk_h': bytes.fromhex('08e00266fff0aacc64974f22a53622a7dc458ac1b5fd446ae7c99a4a99a564e6'),
    'pk_h': bytes.fromhex('07c090322e0c123ba31056e703e3b873df2193428ca63419fba1a4ba4352bbe2'),
    'sk_u': bytes.fromhex('2905e7f7863ab6965a31a4af435917c7692a46b13526a0706c2274cab2470adf'),
    'pk_u': bytes.fromhex('d82f24ddbf956165dc94556f0973d504585c4156fc0c9ca337d689dd2208b898'),
    'k_s1': bytes.fromhex('c0b257103c0bd7dffff1107c12d671868c2fe66a24eee6129857a671f80b4baa'),
    'k_star': bytes.fromhex('9a5803fad2a22fce7d0eb7f14dbaba190fad7c9dc7dec366eb74acc6165ecc35'),
    'res_star': bytes.fromhex('edad0214e0aa31dcb491b305c0ced2c3'),
    'k_seaf': bytes.fromhex('c24f6dcb90bc58c8732da26c11ee47e1bfa8e223d142bb705241061539b75ccd'),
    'k_s_next': bytes.fromhex('17400c9faa66ef5b60fb65edce3e2efab03f9c0a714b64758b6056b48dfa6cdd'),
}
