//! Golden digests of the simulator's observable behaviour.
//!
//! Each digest folds 20 iterations of [`System::run_iteration`] — two random
//! programs, ten iterations each, so both the cached-program and the
//! new-program set-up paths run — into one FNV-1a value: per iteration the
//! cycle count, retired operations, hang/complete flags, protocol errors and
//! the whole candidate execution, then the final global cycle and every
//! cumulative coverage count.  The digests were recorded on the commit
//! *before* the simulation loop learned to fast-forward inert cycles; any
//! change to them means simulated behaviour changed, which no performance
//! work on the loop may do.

use mcversi::mcm::{Address, FenceKind};
use mcversi::sim::{BugConfig, CoreStrength, ProtocolKind, System, SystemConfig};
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

/// A random 4-thread program over a footprint that conflicts in the small
/// configuration's L1 sets and L2 banks, using every operation kind.
fn random_program(rng: &mut StdRng, next_value: &mut u64) -> TestProgram {
    const FENCES: [FenceKind; 6] = [
        FenceKind::Full,
        FenceKind::Acquire,
        FenceKind::Release,
        FenceKind::LoadLoad,
        FenceKind::StoreStore,
        FenceKind::LightweightSync,
    ];
    let threads = (0..4)
        .map(|_| {
            let len = rng.gen_range(24..48usize);
            (0..len)
                .map(|_| {
                    let set_alias = rng.gen_range(0..6u64);
                    let line = rng.gen_range(0..4u64);
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

fn digest(protocol: ProtocolKind, strength: CoreStrength, seed: u64) -> u64 {
    let mut cfg = SystemConfig::small(protocol);
    cfg.core_strength = strength;
    let mut sys = System::new(cfg, BugConfig::none(), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut next_value = 0u64;
    let mut hash = FNV_OFFSET;
    for _ in 0..2 {
        let program = random_program(&mut rng, &mut next_value);
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

#[test]
fn twenty_iteration_digests_match_the_recorded_ones() {
    let mut mismatches = Vec::new();
    for (protocol, strength, seed, expected) in GOLDEN {
        let got = digest(protocol, strength, seed);
        if got != expected {
            mismatches.push(format!(
                "({protocol:?}, {strength:?}, seed {seed}): got {got:#018x}, recorded {expected:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulated behaviour changed:\n{}",
        mismatches.join("\n")
    );
}
