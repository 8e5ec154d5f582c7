//! Golden digests of the simulator's observable behaviour.
//!
//! Each digest folds 20 iterations of [`System::run_iteration`] — two random
//! programs, ten iterations each, so both the cached-program and the
//! new-program set-up paths run — into one FNV-1a value: per iteration the
//! cycle count, retired operations, hang/complete flags, protocol errors and
//! the whole candidate execution, then the final global cycle and every
//! cumulative coverage count.  The bug-free digests on the small
//! configuration ([`GOLDEN`]) were recorded on the commit *before* the
//! simulation loop learned to fast-forward inert cycles; any change to them
//! means simulated behaviour changed, which no performance work on the loop
//! may do.
//!
//! [`PROTOCOL_BUGS`] pins every protocol bug of `Bug::ALL` on the protocol it
//! lives in, on both core strengths, and [`PAPER_SHAPE`] both bug-free
//! protocols on the 8-core `SystemConfig::paper_default()`, whose programs
//! give every L2 bank two home lines.  Both tables were recorded on the
//! commit before the MESI and TSO-CC controllers moved onto one shared L1
//! and one shared L2 skeleton, so they pin that refactor (and any later one)
//! on the injected-bug paths and on bank and home mapping at scale.

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
        fnv1a(&mut hash, format!("{transition} {count}\n").as_bytes());
    }
    hash
}

const GOLDEN: [(ProtocolKind, CoreStrength, u64, u64); 12] = [
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        1,
        0x8786_364a_da82_7f5e,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        2,
        0x7227_aa4a_b513_e063,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        3,
        0x00d8_091f_7021_3e59,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        1,
        0x4bab_efe5_df55_0d57,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        2,
        0xbf5d_622a_6d14_dbcd,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        3,
        0x9ce2_772d_1eb5_5b7c,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        1,
        0x8334_eed5_c2d3_a043,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        2,
        0xc713_831a_a7a9_7835,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        3,
        0x99d2_96fc_fb7c_8b6b,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        1,
        0x50e8_28b1_21c2_6829,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        2,
        0x73b6_06a0_542b_0ce4,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        3,
        0x272b_19e8_540a_a2c2,
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
        0x3bce_7647_8219_2dca,
    ),
    (
        Bug::MesiLqSmInv,
        CoreStrength::Strong,
        49,
        0xf369_2f28_a650_7a9e,
    ),
    (
        Bug::MesiLqEInv,
        CoreStrength::Strong,
        1,
        0xafa4_98af_bdac_ee19,
    ),
    (
        Bug::MesiLqMInv,
        CoreStrength::Strong,
        1,
        0xab22_c089_4930_da7a,
    ),
    (
        Bug::MesiLqSReplacement,
        CoreStrength::Strong,
        4,
        0x8237_b249_81e9_b2c6,
    ),
    (
        Bug::MesiPutxRace,
        CoreStrength::Strong,
        1,
        0xc605_61cc_e573_4bee,
    ),
    (
        Bug::MesiReplaceRace,
        CoreStrength::Strong,
        1,
        0xe42e_bf23_ed81_80c5,
    ),
    (
        Bug::TsoCcNoEpochIds,
        CoreStrength::Strong,
        1,
        0x0965_f3e6_5037_6919,
    ),
    (
        Bug::TsoCcCompare,
        CoreStrength::Strong,
        1,
        0xc924_2169_99fc_24cf,
    ),
    (
        Bug::MesiLqIsInv,
        CoreStrength::Relaxed,
        1,
        0x4bab_efe5_df55_0d57,
    ),
    (
        Bug::MesiLqSmInv,
        CoreStrength::Relaxed,
        1,
        0x4bab_efe5_df55_0d57,
    ),
    (
        Bug::MesiLqEInv,
        CoreStrength::Relaxed,
        1,
        0x4bab_efe5_df55_0d57,
    ),
    (
        Bug::MesiLqMInv,
        CoreStrength::Relaxed,
        1,
        0x4bab_efe5_df55_0d57,
    ),
    (
        Bug::MesiLqSReplacement,
        CoreStrength::Relaxed,
        1,
        0x4bab_efe5_df55_0d57,
    ),
    (
        Bug::MesiPutxRace,
        CoreStrength::Relaxed,
        1,
        0xdf9e_f658_9b55_871e,
    ),
    (
        Bug::MesiReplaceRace,
        CoreStrength::Relaxed,
        1,
        0xafe1_3c73_8f7b_ceea,
    ),
    (
        Bug::TsoCcNoEpochIds,
        CoreStrength::Relaxed,
        1,
        0xe17a_a221_6f50_5618,
    ),
    (
        Bug::TsoCcCompare,
        CoreStrength::Relaxed,
        4,
        0xafe4_573d_b91c_0f22,
    ),
];

/// Bug-free digests on `SystemConfig::paper_default()` (8 cores, 8 banks),
/// seed 1.
const PAPER_SHAPE: [(ProtocolKind, CoreStrength, u64); 4] = [
    (
        ProtocolKind::Mesi,
        CoreStrength::Strong,
        0xc070_c740_5ba3_79d8,
    ),
    (
        ProtocolKind::Mesi,
        CoreStrength::Relaxed,
        0xd0bc_01fe_8841_4fc2,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Strong,
        0x7e67_168c_66ab_f09b,
    ),
    (
        ProtocolKind::TsoCc,
        CoreStrength::Relaxed,
        0xf164_0baf_34ec_a34c,
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
