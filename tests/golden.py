# generated by an independent oracle script; do not edit by hand. SESSION_WIRE,
# and SESSION_VALUES' 16-byte res_star, are derived from that oracle's vectors
# by tests/test_golden.py.
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
    'sn-hn-ident': bytes.fromhex('032064af77cf4efc95ceed9df59465aeb158a75266342e87eaf75727fe7848733d9d41790759ff45831f8afb83577e1e23c51cf2c5331a8344f46732c99d341f1fd7f0b39796412caf2cc4b1da08a04505d15b5e87393a62ed63842082a998e54a94804e7f8d3f62174f0a44b2fee7049ed0e8c09a76a6f7fcb7d22ba1bbd0541d72ad952494d4c90a35efe5dccb9c6da61e402a'),
    'auth-vector': bytes.fromhex('04420c07b1cfffe785974638c6d3dc0dd0412fc79457cce189d4fd6bf1aa10562e057bded317b00399bddd3c6dd97c5eda45c134be821b078504ab71cede828c8404e8f879d64530fc4518cb34da5f61e237d4c47f4499af6fb959b09e9fc8917aea37f15c0ed36e2d19eb4a1732f572e379df0b895e820120ea07967cfcb36ce127c216f8aa955932cb06e2181fad06ab0c868a71e919dfdd'),
    'challenge': bytes.fromhex('05420c07b1cfffe785974638c6d3dc0dd0412fc79457cce189d4fd6bf1aa10562e057bded317b00399bddd3c6dd97c5eda0120ea07967cfcb36ce127c216f8aa955932cb06e2181fad06ab0c868a71e919dfdd'),
    'response': bytes.fromhex('06191dceb8a361526894e0f81918f329e3'),
    'confirm': bytes.fromhex('07'),
    'guti-id': bytes.fromhex('08de8d192421cc79eb37484270549b5258'),
    'sn-hn-guti': bytes.fromhex('0914696d73692d3030313031303030303030303030313730a19b554ea4ae5194c9dd48ebce49db9504666f8b2ae9beb754ec6c0d913e9a76a6f7fcb7d22ba1bbd0541d72ad952494d4c90a35efe5dccb9c6da61e402a'),
    'guti-assign': bytes.fromhex('0ade8d192421cc79eb37484270549b5258'),
    'secure-envelope': bytes.fromhex('0b2112b5e994fce4d70f6028c0a2088b4f5a0b0178130f8ed5ec5211599a8050df288a'),
    'abort': bytes.fromhex('0c'),
}

SESSION_VALUES = {
    'k': bytes.fromhex('2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb'),
    'sk_h': bytes.fromhex('08e00266fff0aacc64974f22a53622a7dc458ac1b5fd446ae7c99a4a99a564e6'),
    'pk_h': bytes.fromhex('07c090322e0c123ba31056e703e3b873df2193428ca63419fba1a4ba4352bbe2'),
    'sk_u': bytes.fromhex('2905e7f7863ab6965a31a4af435917c7692a46b13526a0706c2274cab2470adf'),
    'pk_u': bytes.fromhex('d82f24ddbf956165dc94556f0973d504585c4156fc0c9ca337d689dd2208b898'),
    'k_s1': bytes.fromhex('c0b257103c0bd7dffff1107c12d671868c2fe66a24eee6129857a671f80b4baa'),
    'k_star': bytes.fromhex('449d5bfc8873f406fa135b7f1daf71fb9a987236122547fe2b4545899af07d56'),
    'res_star': bytes.fromhex('191dceb8a361526894e0f81918f329e3'),
    'k_seaf': bytes.fromhex('df96ac20cf4a216c4c1c20e3b27d36198f79f2b447bb1efdce31deb5ed3503e8'),
    'k_s_next': bytes.fromhex('8844d1f578d7ab2ac89f57501244d27ffd5f01c708d730bea4d50f1a8d519c39'),
}
