//! Golden digests of the simulator's observable behaviour.
//!
//! Each digest folds 20 iterations of [`System::run_iteration`] — two random
//! programs, ten iterations each, so both the cached-program and the
//! new-program set-up paths run — into one FNV-1a value: per iteration the
//! cycle count, retired operations, hang/complete flags, protocol errors and
//! the whole candidate execution, then the final global cycle and every
//! cumulative coverage count.  The bug-free digests on the small
//! configuration ([`GOLDEN`]) pin simulated behaviour bit for bit; any
//! change to them means simulated behaviour changed, which no performance
//! work on the loop may do.
//!
//! [`PROTOCOL_BUGS`] pins every protocol bug of `Bug::ALL` on the protocol it
//! lives in, on both core strengths, and [`PAPER_SHAPE`] both bug-free
//! protocols on the 8-core `SystemConfig::paper_default()`, whose programs
//! give every L2 bank two home lines, so they pin the injected-bug paths and
//! bank and home mapping at scale.
//!
//! [`GOLDEN`] and [`PROTOCOL_BUGS`] were last recorded when an L1 flush of
//! a resident line stopped recording its `Flush` twice (once for the flush,
//! once more for the eviction it starts).  Only coverage counts moved: with
//! the counts left out of each digest, all 34 rows hash as they did before,
//! and every simulated iteration is unchanged.  [`PAPER_SHAPE`] kept its
//! digests, because none of its flushes finds its line resident.  All three
//! tables were recorded before that when the controllers began to record a
//! transition when they take it, after its stall check, rather than every
//! cycle a stalled request is retried (`I+Load` / `I+Store` / `I+Rmw` behind
//! a busy L1 victim, `L2:NP+GetS` / `GetX` behind a pending fetch or
//! eviction), which also moved only coverage counts.  The tables before that
//! were recorded when two changes of behaviour landed together: the bug-free
//! MESI L1 installs an exclusive grant that follows a sunk invalidation, and
//! the core forwards only from writes that have not left it; and an issue
//! stage draws its jitter only when it would act, which moved the RNG
//! stream.  Earlier tables were recorded before the loop learned to
//! fast-forward inert cycles (small configuration) and before the
//! controllers moved onto one shared L1 and L2 skeleton (the other two);
//! both refactors kept them.

use mcversi::mcm::{Address, FenceKind};
use mcversi::sim::{Bug, BugConfig, CoreStrength, ProtocolKind, System, SystemConfig};
use mcversi::sim::{TestOp, TestProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// A random program with one thread per core over a footprint that conflicts
/// in the L1 sets (six lines 64 KiB apart share a set in both
/// configurations) and makes every one of `banks` L2 banks the home of two
/// lines, using every operation kind.
fn random_program(rng: &mut StdRng, next_value: &mut u64, cores: usize, banks: u64) -> TestProgram {
    const FENCES: [FenceKind; 6] = [
        FenceKind::Full,
        FenceKind::Acquire,
        FenceKind::Release,
        FenceKind::LoadLoad,
        FenceKind::StoreStore,
        FenceKind::LightweightSync,
    ];
    let threads = (0..cores)
        .map(|_| {
            let len = rng.gen_range(24..48usize);
            (0..len)
                .map(|_| {
                    let set_alias = rng.gen_range(0..6u64);
                    let line = rng.gen_range(0..2 * banks);
                    let word = rng.gen_range(0..2u64);
                    let addr = Address(0x1_0000 * set_alias + 0x40 * line + 8 * word);
                    let mut value = || {
                        *next_value += 1;
                        *next_value
                    };
                    match rng.gen_range(0..100u32) {
                        0..=34 => TestOp::read(addr),
                        35..=39 => TestOp::read_addr_dp(addr),
                        40..=69 => TestOp::write(addr, value()),
                        70..=73 => TestOp::write_data_dp(addr, value()),
                        74..=77 => TestOp::write_ctrl_dp(addr, value()),
                        78..=83 => TestOp::rmw(addr, value()),
                        84..=88 => TestOp::flush(addr),
                        89..=92 => TestOp::delay(rng.gen_range(1..40u32)),
                        _ => TestOp::fence_of(FENCES[rng.gen_range(0..FENCES.len())]),
                    }
                })
                .collect()
        })
        .collect();
    TestProgram::new(threads)
}

fn digest(mut cfg: SystemConfig, strength: CoreStrength, bugs: BugConfig, seed: u64) -> u64 {
    cfg.core_strength = strength;
    let (cores, banks) = (cfg.num_cores, cfg.l2_banks as u64);
    let mut sys = System::new(cfg, bugs, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut next_value = 0u64;
    let mut hash = FNV_OFFSET;
    for _ in 0..2 {
        let program = random_program(&mut rng, &mut next_value, cores, banks);
        for _ in 0..10 {
            let outcome = sys.run_iteration(&program);
            let line = format!(
                "{} {} {} {} {:?} {:?}\n",
                outcome.cycles,
                outcome.retired_ops,
                outcome.hung,
                outcome.complete,
                outcome.protocol_errors,
                outcome.execution,
            );
            fnv1a(&mut hash, line.as_bytes());
        }
    }
    fnv1a(&mut hash, format!("cycle {}\n", sys.cycle()).as_bytes());
    for (transition, count) in sys.coverage().iter_cumulative() {
        // The universe is the denominator of the GP fitness and of Table 6.
        assert!(
            sys.coverage_universe().contains(&transition),
            "{transition} was recorded outside the coverage universe"
        );
        fnv1a(&mut hash, format!("{transition} {count}\n").as_bytes());
    }
    hash
}

const GOLDEN: [(ProtocolKind, CoreStrength, u64, u64); 12] = [
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        1,
        0x5246_ea5a_e5cf_de16,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        2,
        0xd090_1c04_8052_185c,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        3,
        0x3b9b_04a7_585a_e57f,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        1,
        0xb659_a8b1_7628_e2d1,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        2,
        0x2521_1c7f_d23f_441c,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        3,
        0xb50e_0bf4_cfdc_fb91,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        1,
        0x821e_bc23_6eec_4ed6,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        2,
        0xf528_c5ee_7eb5_8225,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        3,
        0xf7a6_4613_c4ff_37e4,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        1,
        0x1352_021e_4184_4c70,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        2,
        0xf1ee_e678_290e_6ff8,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        3,
        0x2639_05b2_f85d_1811,
    ),
];

/// One digest per (protocol bug of `Bug::ALL`, core strength), on the small
/// configuration of the protocol the bug lives in.  Each seed is the
/// smallest one at which the bug changes the digest.  The relaxed core does
/// not squash on an invalidation, so it masks the five MESI load-queue bugs:
/// their relaxed digests are the bug-free one of seed 1, which pins that
/// too.
const PROTOCOL_BUGS: [(Bug, CoreStrength, u64, u64); 18] = [
    (
        Bug::MesiLqIsInv,
        CoreStrength::Strong,
        1,
        0x457c_98a2_e10e_8889,
    ),
    (
        Bug::MesiLqSmInv,
        CoreStrength::Strong,
        1,
        0x4435_4883_8d3b_0dec,
    ),
    (
        Bug::MesiLqEInv,
        CoreStrength::Strong,
        1,
        0x4591_b4d4_c157_f5eb,
    ),
    (
        Bug::MesiLqMInv,
        CoreStrength::Strong,
        1,
        0xc4a8_0d39_ae0d_9018,
    ),
    (
        Bug::MesiLqSReplacement,
        CoreStrength::Strong,
        1,
        0x85a3_cfd3_a71f_ecfa,
    ),
    (
        Bug::MesiPutxRace,
        CoreStrength::Strong,
        1,
        0x32c1_74da_6473_2988,
    ),
    (
        Bug::MesiReplaceRace,
        CoreStrength::Strong,
        1,
        0x99ac_9868_3c31_b351,
    ),
    (
        Bug::TsoCcNoEpochIds,
        CoreStrength::Strong,
        1,
        0x4126_85d9_7311_e026,
    ),
    (
        Bug::TsoCcCompare,
        CoreStrength::Strong,
        1,
        0x584e_b95c_2d26_1f3e,
    ),
    (
        Bug::MesiLqIsInv,
        CoreStrength::Relaxed,
        1,
        0xb659_a8b1_7628_e2d1,
    ),
    (
        Bug::MesiLqSmInv,
        CoreStrength::Relaxed,
        1,
        0xb659_a8b1_7628_e2d1,
    ),
    (
        Bug::MesiLqEInv,
        CoreStrength::Relaxed,
        1,
        0xb659_a8b1_7628_e2d1,
    ),
    (
        Bug::MesiLqMInv,
        CoreStrength::Relaxed,
        1,
        0xb659_a8b1_7628_e2d1,
    ),
    (
        Bug::MesiLqSReplacement,
        CoreStrength::Relaxed,
        1,
        0xb659_a8b1_7628_e2d1,
    ),
    (
        Bug::MesiPutxRace,
        CoreStrength::Relaxed,
        1,
        0x98a1_2f45_553a_9f77,
    ),
    (
        Bug::MesiReplaceRace,
        CoreStrength::Relaxed,
        1,
        0x1aef_7be7_6ff9_7b02,
    ),
    (
        Bug::TsoCcNoEpochIds,
        CoreStrength::Relaxed,
        1,
        0x3832_5286_79a2_61de,
    ),
    (
        Bug::TsoCcCompare,
        CoreStrength::Relaxed,
        1,
        0x6461_67f1_8b1d_2b53,
    ),
];

/// Bug-free digests on `SystemConfig::paper_default()` (8 cores, 8 banks),
/// seed 1.
const PAPER_SHAPE: [(ProtocolKind, CoreStrength, u64); 4] = [
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        0x0e77_81c8_5c83_436b,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        0x5394_2d95_12ce_1dda,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        0x6eaf_7c7d_2285_0ce9,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        0xc090_5a88_1138_7241,
    ),
];

/// Panics listing every case whose digest differs from the recorded one.
fn assert_digests(cases: impl IntoIterator<Item = (String, u64, u64)>) {
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter(|(_, got, expected)| got != expected)
        .map(|(case, got, expected)| format!("{case}: got {got:#018x}, recorded {expected:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "simulated behaviour changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn twenty_iteration_digests_match_the_recorded_ones() {
    assert_digests(GOLDEN.map(|(protocol, strength, seed, expected)| {
        let got = digest(
            SystemConfig::small(protocol),
            strength,
            BugConfig::none(),
            seed,
        );
        (
            format!("({protocol:?}, {strength:?}, seed {seed})"),
            got,
            expected,
        )
    }));
}

#[test]
fn every_protocol_bug_matches_its_recorded_digest() {
    assert_eq!(
        PROTOCOL_BUGS.len(),
        2 * Bug::ALL
            .iter()
            .filter(|bug| bug.required_protocol().is_some())
            .count()
    );
    assert_digests(PROTOCOL_BUGS.map(|(bug, strength, seed, expected)| {
        let protocol = bug.required_protocol().expect("a protocol bug");
        let got = digest(
            SystemConfig::small(protocol),
            strength,
            BugConfig::single(bug),
            seed,
        );
        (format!("({bug}, {strength:?}, seed {seed})"), got, expected)
    }));
}

#[test]
fn the_paper_shape_matches_its_recorded_digests() {
    assert_digests(PAPER_SHAPE.map(|(protocol, strength, expected)| {
        let cfg = SystemConfig {
            protocol,
            ..SystemConfig::paper_default()
        };
        let got = digest(cfg, strength, BugConfig::none(), 1);
        (format!("paper ({protocol:?}, {strength:?})"), got, expected)
    }));
}
