//! Pinned output streams: a 64-bit digest of `generate(w, n, seed)` for
//! every workload shape, computed before the generator was parallelised,
//! and the striped fill held equal to the one-stripe fill. A generator
//! change that moves one key of one stream fails here.

use super::*;

/// One case per `Workload` variant (both Zipf branches: `s = 1` takes the
/// logarithmic inverse, every other `s` the power one).
const SHAPES: [(&str, Workload); 10] = [
    ("uniform", Workload::UniformU64),
    ("bounded", Workload::UniformBounded(1_000)),
    ("sorted", Workload::Sorted),
    ("reverse", Workload::Reverse),
    ("nearly", Workload::NearlySorted(0.1)),
    ("few", Workload::FewDistinct(7)),
    ("zipf1.1", Workload::Zipf(1.1)),
    ("zipf1.0", Workload::Zipf(1.0)),
    ("equal", Workload::AllEqual),
    ("sawtooth", Workload::Sawtooth(1_000)),
];

const LENS: [usize; 5] = [0, 1, 2, 1_000, (1 << 20) + 3];
const SEEDS: [u64; 3] = [0, 1, 2401];

/// `PINNED[shape][len][seed]` for `SHAPES`, `LENS` and `SEEDS`.
const PINNED: [[[u64; 3]; 5]; 10] = [
    // uniform
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0x7b1d354e3519f74b, 0x02750b79b9147132, 0xb4c77ed1d0f37ec4],
        [0x3ed67d73a6f2278f, 0xaaeed34a3208910c, 0x439d0b06a1da8437],
        [0x59e306dd6c8676d3, 0xdd5f2de0932e597f, 0x6ff771ccc0e3103b],
        [0x40a567f8e416fae9, 0x8367832d04169a56, 0xac5ee1f1f8561ca5],
    ],
    // bounded
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xaaf21806a31a95c7, 0xe87dd85008b105d7, 0xa6b0573f98739db7],
        [0xd4b1714b04bdf2ba, 0xb7e1ad75a5d9d1e4, 0xe2517e096ef450be],
        [0xa8d90e66a0d3c21c, 0xc24f50bbbd681420, 0x8c4dadb4d9c2f9cf],
        [0xfac408f9ff982f92, 0x731a72f9f55b0e34, 0x0c1dd7f6ccd4cf59],
    ],
    // sorted
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xe6cef6b98d015f18, 0xe6cef6b98d015f18, 0xe6cef6b98d015f18],
        [0xcab72eb57b63bc7f, 0xcab72eb57b63bc7f, 0xcab72eb57b63bc7f],
        [0x51d410e50bdc900b, 0x51d410e50bdc900b, 0x51d410e50bdc900b],
        [0x2f7fcb31b15da234, 0x2f7fcb31b15da234, 0x2f7fcb31b15da234],
    ],
    // reverse
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xe6cef6b98d015f18, 0xe6cef6b98d015f18, 0xe6cef6b98d015f18],
        [0x2fdfc38054f6fc14, 0x2fdfc38054f6fc14, 0x2fdfc38054f6fc14],
        [0x2c9ef7f1725b39cf, 0x2c9ef7f1725b39cf, 0x2c9ef7f1725b39cf],
        [0x30b073c533c69146, 0x30b073c533c69146, 0x30b073c533c69146],
    ],
    // nearly
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xe6cef6b98d015f18, 0xe6cef6b98d015f18, 0xe6cef6b98d015f18],
        [0xcab72eb57b63bc7f, 0xcab72eb57b63bc7f, 0xcab72eb57b63bc7f],
        [0x824154c93932da69, 0x6e0b999026aa2684, 0x07bbf980d26ff289],
        [0xa978832bfc675982, 0x5cff1bc324a3be42, 0x77cb7ac6a89bf829],
    ],
    // few
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xdb88167fe3059294, 0xdb88167fe3059294, 0x6799a35078ebc10f],
        [0x16ad0c9599be7fb1, 0x71aa0e643e41b859, 0x5f32e53c7bfd5f0d],
        [0xff1a9061e50ade88, 0x563fd74baae27ad7, 0x529ce6a954eb3ff5],
        [0x9a3ebf251ae3134d, 0x333b31493335872d, 0x307aaa9c0f0ae818],
    ],
    // zipf1.1
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xb5f7a160530c8f1a, 0xb5f7a160530c8f1a, 0xb5f7a160530c8f1a],
        [0x663677ed06e6f9b4, 0x663677ed06e6f9b4, 0x663677ed06e6f9b4],
        [0xe0d5c496ce56938d, 0x9fd135b6b7adcf42, 0x403cd68731c125eb],
        [0xe2fc59faea85d634, 0xdd94173bd10fe808, 0xb8f7ef7bc2d0f9a9],
    ],
    // zipf1.0
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xb5f7a160530c8f1a, 0xb5f7a160530c8f1a, 0xb5f7a160530c8f1a],
        [0x663677ed06e6f9b4, 0x663677ed06e6f9b4, 0x663677ed06e6f9b4],
        [0x90ed9ecc60352565, 0x00e700561cf9cc15, 0xbf8c429facdfa67e],
        [0xf05dbbbe128c6694, 0xaaa7009aee1f4264, 0x4c86e9bc63292c78],
    ],
    // equal
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0x24d4fc5ba7df0aba, 0x24d4fc5ba7df0aba, 0x24d4fc5ba7df0aba],
        [0x5f8c5c9050c0dee4, 0x5f8c5c9050c0dee4, 0x5f8c5c9050c0dee4],
        [0x351f2af0a7bc6b0a, 0x351f2af0a7bc6b0a, 0x351f2af0a7bc6b0a],
        [0xbe30c4c22bf70b53, 0xbe30c4c22bf70b53, 0xbe30c4c22bf70b53],
    ],
    // sawtooth
    [
        [0xed24347f9c5a68f5, 0xed24347f9c5a68f5, 0xed24347f9c5a68f5],
        [0xe6cef6b98d015f18, 0xe6cef6b98d015f18, 0xe6cef6b98d015f18],
        [0xcab72eb57b63bc7f, 0xcab72eb57b63bc7f, 0xcab72eb57b63bc7f],
        [0x51d410e50bdc900b, 0x51d410e50bdc900b, 0x51d410e50bdc900b],
        [0x80d4678637a6c363, 0x80d4678637a6c363, 0x80d4678637a6c363],
    ],
];

/// Order-sensitive 64-bit digest of a key stream and its length.
fn digest(v: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ v.len() as u64;
    for &x in v {
        h = (h.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 29)
}

#[test]
fn every_stream_matches_its_pinned_digest() {
    let mut wrong = Vec::new();
    for ((name, w), pinned) in SHAPES.iter().zip(&PINNED) {
        for (&n, pinned) in LENS.iter().zip(pinned) {
            for (&seed, &want) in SEEDS.iter().zip(pinned) {
                let got = digest(&generate(*w, n, seed));
                if got != want {
                    wrong.push(format!("{name} n={n} seed={seed}: 0x{got:016x}"));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "streams moved:\n{}", wrong.join("\n"));
}

#[test]
fn every_stripe_count_fills_the_same_keys() {
    // Lengths off every stripe and page (512-key) boundary.
    for n in [0, 1, 3, 513, 4_099, 70_001] {
        for (name, w) in SHAPES {
            for seed in [0, 2401] {
                let one = fill(w, n, seed, 1);
                for stripes in 2..=5 {
                    assert!(
                        fill(w, n, seed, stripes) == one,
                        "{name} n={n} seed={seed}: {stripes} stripes"
                    );
                }
            }
        }
    }
}

#[test]
fn short_inputs_stay_on_the_caller() {
    for n in [0, 1, 2 * STRIPE_KEYS - 1] {
        assert_eq!(stripes(n), 1, "n={n}");
    }
    assert!((1..=2).contains(&stripes(2 * STRIPE_KEYS)));
}

/// Paper-scale inputs on the host's stripe count against one stripe, and
/// against digests pinned from the single-threaded generator. Slow in a
/// debug build: `cargo test -p tlmm-workloads --release -- --ignored`.
#[test]
#[ignore]
fn paper_scale_streams_match_on_every_stripe_count() {
    for (w, n, want) in [
        (Workload::Zipf(1.1), 10_000_000, 0xfa04c2cab0cb4795),
        (Workload::UniformU64, 12_000_000, 0xe63da095f7a03506),
    ] {
        let host = generate(w, n, 1);
        assert_eq!(digest(&host), want, "{w:?} on {} stripes", stripes(n));
        assert!(fill(w, n, 1, 1) == host, "{w:?}: one stripe differs");
    }
}

/// An `RngCore` that counts the words drawn from a seeded stream.
struct Counting(StdRng, usize);

impl RngCore for Counting {
    fn next_u64(&mut self) -> u64 {
        self.1 += 1;
        self.0.next_u64()
    }
}

#[test]
fn zipf_sample_draws_exactly_one_word() {
    for s in [0.5, 1.0, 1.1, 2.0] {
        let zipf = ZipfSampler::new(1 << 20, s);
        let mut rng = Counting(StdRng::seed_from_u64(3), 0);
        for k in 1..=1_000 {
            zipf.sample(&mut rng);
            assert_eq!(rng.1, k, "s = {s}");
        }
    }
}
