//! Pinned stream digests: `(workload, seed, [(trace index, digest)])` for
//! the first requests (two per client) of the default seeds 1–10. A
//! completed request whose digest differs from its pin is a failure.
//! Regenerate with `--pin <n>` after a deliberate change to the engine's
//! outputs.

/// `(trace index, stream digest)` pairs of one workload and seed.
pub type Digests = &'static [(usize, u64)];

/// Pinned digests.
#[rustfmt::skip]
pub const PINS: &[(&str, u64, Digests)] = &[
    ("chat_short", 1, &[(0, 0xa0b24669348514a6), (1, 0xf91ff4513cd5993a), (2, 0x34fe11f87fc93c26), (3, 0x5f759e4a3b9d79ef), (4, 0x52b6ced0be40a8a0), (5, 0x2396db6cc0e44e99), (6, 0x7859a5dcca3b6aa4), (7, 0xd8f96f610e36ced4)]),
    ("chat_short", 2, &[(0, 0x1e9de4c03c80bbe4), (1, 0x15d58470a6d53e65), (2, 0x7d76f5cf274f06a3), (3, 0x02518e670797ceff), (4, 0xcfdadc97ac49be12), (5, 0x2ffc97115b83f0cd), (6, 0xaf8a66658ebf4ecc), (7, 0xb6d08f503244f52b)]),
    ("chat_short", 3, &[(0, 0x016999804b3bb121), (1, 0xbbb794adc18accd9), (2, 0xc9f0ad30ef0a59af), (3, 0x1845304ca5a74d4c), (4, 0xe1fa97c32b08d6b3), (5, 0xa618b851450b811b), (6, 0x17323f695baa91d4), (7, 0x2214ae2a079e73fa)]),
    ("chat_short", 4, &[(0, 0x1c1516dc44881e68), (1, 0xa8b60a816a5dcc4a), (2, 0x8b9ae4cdbcb2d204), (3, 0xbc4afc0d944663c6), (4, 0x27033d874c225ffa), (5, 0x4acc35054ebfb24d), (6, 0xfa7b9d82f116ab56), (7, 0x234902c522e9e078)]),
    ("chat_short", 5, &[(0, 0x75ae4c8996e9f965), (1, 0x92fbe9a9c644c34d), (2, 0xd45e69bda2685ba7), (3, 0xe2e047cb2e2014a1), (4, 0xf08342fbd8844f81), (5, 0x735e7bd5b95e7a20), (6, 0x9fcde7146b5cfd75), (7, 0x6e5eabc64ef18aec)]),
    ("chat_short", 6, &[(0, 0x84e17ca854ccdbda), (1, 0xcb07be6fb6c81255), (2, 0x4b7920468f9c029b), (3, 0x96963ceb89b9f369), (4, 0xc3a7becc7ca71904), (5, 0x82e31fc6ae9597b8), (6, 0xf6079edbd5bea9d8), (7, 0xe7fce334c0bd6425)]),
    ("chat_short", 7, &[(0, 0x91824bf8e12b7f4d), (1, 0xc666ea05a1ddc390), (2, 0x157051646aa3d972), (3, 0xb701c2e120fc34e9), (4, 0x03770276bd03b094), (5, 0x4184103408d13f14), (6, 0x81e4877b906a2abb), (7, 0x3fc90d7424f19162)]),
    ("chat_short", 8, &[(0, 0x20c7884bbc1cf9f6), (1, 0x38d10dea6803c2f1), (2, 0xbed01b8a28f2ee92), (3, 0x5530723df0c80d51), (4, 0xc25bbd16efa2e583), (5, 0xedde6189f530a6e5), (6, 0x3b08a32930ec4f41), (7, 0x5c5d1c63b1a6fb0e)]),
    ("chat_short", 9, &[(0, 0x606fdf649d2afcc1), (1, 0x26fb965a6dba1bda), (2, 0xa6519acf10bc623c), (3, 0xf56abcc9897cad17), (4, 0xfbe483fb3e67a740), (5, 0xe2c7703ce47732d2), (6, 0xbda0688fbbdd529c), (7, 0xa26be486186df0c7)]),
    ("chat_short", 10, &[(0, 0xba0056287f8ddc17), (1, 0x8117e0851e42bfd2), (2, 0x1aefeef049a64f21), (3, 0x2f71173610ca95cc), (4, 0x3d22614fdf088477), (5, 0xf16dccf7da27988e), (6, 0xf1d0b098c0b7dcf5), (7, 0x0a6194729a28d888)]),
    ("doc_qa", 1, &[(0, 0xb67e224e1a83de52), (1, 0x939c7ed564cd80b9), (2, 0xcb334f0215badbf2), (3, 0xd054d37786531aaa)]),
    ("doc_qa", 2, &[(0, 0x5cb5ce0ec36d77ff), (1, 0x991152b2214a2574), (2, 0x158007f8e4b7282c), (3, 0x5031b5b84e55722d)]),
    ("doc_qa", 3, &[(0, 0x2169f2c4d51aa0a9), (1, 0xc126e13d938782b3), (2, 0x7ea9e27324407d22), (3, 0x6a3c097f05cf5bcf)]),
    ("doc_qa", 4, &[(0, 0x32a5cfacdd22e65a), (1, 0xdac39dcc141a413a), (2, 0xc3cd402d3271d1ae), (3, 0xd709d60e2ee0a28a)]),
    ("doc_qa", 5, &[(0, 0x0ca233bde3de2bb3), (1, 0xbe8e1b235a2d0be2), (2, 0x426d8c5497482f64), (3, 0x43762ff26ead488d)]),
    ("doc_qa", 6, &[(0, 0x93b273cabacb0330), (1, 0xd93fa666ff2239b1), (2, 0xe29b7fe4ce9c10a6), (3, 0xeb7efeb0cce47de0)]),
    ("doc_qa", 7, &[(0, 0xb96e2539aeb22611), (1, 0xeb51916dad555d52), (2, 0x5871f1fc5b8c6e9b), (3, 0x106ebb92fd8fad6f)]),
    ("doc_qa", 8, &[(0, 0xcc7b3d52063ab51a), (1, 0x70956a063a7ccc5a), (2, 0x176370355549171f), (3, 0xd36021085c836d42)]),
    ("doc_qa", 9, &[(0, 0x4fab296cf7ffb7ea), (1, 0x4eed8b02c6551b63), (2, 0x0218fda5022b9b12), (3, 0xea50e6e0d267a508)]),
    ("doc_qa", 10, &[(0, 0xa66902ca1bef5fba), (1, 0x590a858ebbd3ec9d), (2, 0x1c8abad57e2d8ef7), (3, 0xd2fa586075cd8ad6)]),
];

/// The pins of `workload` at `seed` (empty if unpinned).
pub fn pins(workload: &str, seed: u64) -> Digests {
    PINS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map_or(&[], |(_, _, p)| p)
}
