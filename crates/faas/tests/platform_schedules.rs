//! Pinned schedules: the platform's observables on fixed seeded schedules,
//! held as literals.
//!
//! Each schedule mixes gateway invocations, direct TCP deliveries,
//! fault-injection kills, short advances and idle gaps long enough for the
//! reclamation scan to fire, on a cluster tight enough to hit scale-out
//! limits, capacity-pressure eviction and TTL expiry (seeds 40, 1032, 1324
//! and 1567 evict; 1496 expires a request). The literals were recorded from
//! both the indexed platform (slab table, ready heaps, idle lists, pooled
//! invocation records) and the plain-scan platform that replaced it, which
//! agreed on every value. They pin the counters, the completions, the
//! instance-count gauge, and both billing meters to the last bit
//! (floating-point summation order is part of the contract).

use std::cell::RefCell;
use std::rc::Rc;

use lambda_faas::{
    DeploymentId, Function, FunctionConfig, InstanceCtx, InstanceId, Platform, PlatformConfig,
    Responder,
};
use lambda_sim::params::FaasParams;
use lambda_sim::{Dist, Sim, SimDuration, SimTime, Station};

/// One platform operation. Deployment and instance picks are small
/// indices resolved against the platform's current state, so a divergence
/// in earlier state surfaces as a divergence in observables.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Gateway invocation (the auto-scaling path).
    InvokeHttp { dep: u8, req: u64 },
    /// Direct delivery to the `pick`-th warm instance, if any.
    DeliverTcp { dep: u8, pick: u8, req: u64 },
    /// Fault injection: kill the `pick`-th warm instance, if any.
    Kill { dep: u8, pick: u8 },
    /// Let the simulation run a little.
    Advance { millis: u16 },
    /// Let the simulation run past the idle-reclamation horizon.
    AdvanceIdle,
}

/// SplitMix64: the schedule generator, independent of the simulation's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// 12–40 operations weighted 5 : 4 : 1 : 4 : 1 (HTTP, TCP, kill, advance,
/// idle gap) over two deployments.
fn schedule(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix(seed);
    let len = 12 + rng.next() % 29;
    (0..len)
        .map(|_| {
            let dep = (rng.next() % 2) as u8;
            match rng.next() % 15 {
                0..=4 => Op::InvokeHttp { dep, req: rng.next() },
                5..=8 => Op::DeliverTcp { dep, pick: rng.next() as u8, req: rng.next() },
                9 => Op::Kill { dep, pick: rng.next() as u8 },
                10..=13 => Op::Advance { millis: 1 + (rng.next() % 399) as u16 },
                _ => Op::AdvanceIdle,
            }
        })
        .collect()
}

/// A small CPU-bound echo function.
struct Worker;

impl Function for Worker {
    type Req = u64;
    type Resp = u64;

    fn on_start(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx) {}

    fn on_request(&mut self, sim: &mut Sim, ctx: &InstanceCtx, req: u64, respond: Responder<u64>) {
        let work = SimDuration::from_millis(2);
        Station::submit(&ctx.cpu, sim, work, move |sim| respond.send(sim, req.wrapping_add(1)));
    }

    fn on_terminate(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx, _graceful: bool) {}
}

/// Room for three instances, so schedules hit scale-out limits, queueing,
/// TTL expiry and capacity-pressure eviction, with reclamation reachable
/// inside short advances.
fn config() -> PlatformConfig {
    PlatformConfig {
        cluster_vcpus: 12,
        faas: FaasParams {
            cold_start: Dist::uniform(0.1, 0.3),
            idle_reclaim_after: SimDuration::from_secs(2),
            reclaim_scan_every: SimDuration::from_millis(500),
        },
        request_ttl: SimDuration::from_secs(3),
        ..PlatformConfig::default()
    }
}

fn function_config(min_instances: u32) -> FunctionConfig {
    FunctionConfig { vcpus: 4, mem_gb: 6.0, concurrency: 2, max_instances: 8, min_instances }
}

/// What a schedule pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    /// `PlatformStats` in field order: HTTP invocations, TCP deliveries,
    /// cold starts, reclaims, kills, expired requests, evictions.
    stats: [u64; 7],
    completions: usize,
    /// `(nanoseconds, payload)` of the last completion.
    last_completion: Option<(u64, u64)>,
    gauge_len: usize,
    /// `(nanoseconds, instances)` of the gauge's last point.
    last_gauge: Option<(u64, f64)>,
    pay_bits: u64,
    prov_bits: u64,
}

/// Runs schedule `seed` (the simulation is seeded with it too), drains
/// in-flight work for 5 s, and reads the observables.
fn drive(seed: u64) -> Pinned {
    let mut sim = Sim::new(seed);
    let platform = Platform::new(&config());
    let deps: Vec<DeploymentId> = (0..2u32)
        .map(|d| {
            platform.register_deployment(
                if d == 0 { "alpha" } else { "beta" },
                function_config(d), // dep 0: no floor; dep 1: floor 1
                Box::new(|_ctx| Worker),
            )
        })
        .collect();
    platform.run_maintenance(&mut sim);
    let completions: Rc<RefCell<Vec<(SimTime, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let record = |completions: &Rc<RefCell<Vec<(SimTime, u64)>>>| {
        let sink = Rc::clone(completions);
        Responder::new(move |sim: &mut Sim, resp| sink.borrow_mut().push((sim.now(), resp)))
    };
    let pick = |platform: &Platform<Worker>, dep: u8, pick: u8| {
        let warm = platform.warm_instances(deps[dep as usize]);
        warm.get(pick as usize % warm.len().max(1)).copied()
    };
    for op in schedule(seed) {
        match op {
            Op::InvokeHttp { dep, req } => {
                platform.invoke_http(&mut sim, deps[dep as usize], req, record(&completions));
            }
            Op::DeliverTcp { dep, pick: p, req } => {
                if let Some(instance) = pick(&platform, dep, p) {
                    platform.deliver_tcp(&mut sim, instance, req, record(&completions));
                }
            }
            Op::Kill { dep, pick: p } => {
                if let Some(instance) = pick(&platform, dep, p) {
                    platform.kill_instance(&mut sim, instance);
                }
            }
            Op::Advance { millis } => {
                let deadline = sim.now() + SimDuration::from_millis(u64::from(millis));
                sim.run_until(deadline);
            }
            Op::AdvanceIdle => {
                let deadline = sim.now() + SimDuration::from_secs(3);
                sim.run_until(deadline);
            }
        }
    }
    let deadline = sim.now() + SimDuration::from_secs(5);
    sim.run_until(deadline);
    platform.stop_maintenance();
    let completions = completions.borrow();
    let gauge = platform.instance_gauge();
    let s = platform.stats();
    Pinned {
        stats: [
            s.http_invocations,
            s.tcp_deliveries,
            s.cold_starts,
            s.reclaims,
            s.kills,
            s.expired_requests,
            s.evictions,
        ],
        completions: completions.len(),
        last_completion: completions.last().map(|(t, r)| (t.as_nanos(), *r)),
        gauge_len: gauge.points().len(),
        last_gauge: gauge.points().last().map(|(t, v)| (t.as_nanos(), *v)),
        pay_bits: platform.pay_meter().total().to_bits(),
        prov_bits: platform.prov_meter().total().to_bits(),
    }
}

/// `(seed, pinned observables)`.
#[rustfmt::skip]
const PINNED: [(u64, Pinned); 25] = [
    (1, Pinned { stats: [5, 0, 3, 2, 0, 0, 0], completions: 5, last_completion: Some((6_842_545_551, 9_772_298_966_463_872_781)), gauge_len: 5, last_gauge: Some((9_000_000_000, 1.0)), pay_bits: 0x3ebe_32f2_b070_6bb8, prov_bits: 0x3f5a_36e6_5ab8_3e68 }),
    (2, Pinned { stats: [6, 0, 3, 2, 0, 0, 0], completions: 6, last_completion: Some((214_169_214, 13_633_754_720_362_554_756)), gauge_len: 5, last_gauge: Some((2_500_000_000, 1.0)), pay_bits: 0x3ec0_c6f8_81e4_00d0, prov_bits: 0x3f4d_7dc3_260f_4635 }),
    (3, Pinned { stats: [12, 3, 2, 1, 0, 0, 0], completions: 15, last_completion: Some((2_575_555_311, 16_010_007_306_225_790_203)), gauge_len: 3, last_gauge: Some((5_000_000_000, 1.0)), pay_bits: 0x3ed4_6bd8_965a_e920, prov_bits: 0x3f53_a92c_c40a_2ece }),
    (4, Pinned { stats: [9, 6, 5, 3, 1, 0, 0], completions: 15, last_completion: Some((14_613_551_381, 1_829_315_012_906_359_631)), gauge_len: 9, last_gauge: Some((16_500_000_000, 1.0)), pay_bits: 0x3ed0_c6f8_d655_4808, prov_bits: 0x3f56_f009_8f61_369a }),
    (5, Pinned { stats: [8, 0, 4, 2, 1, 0, 0], completions: 8, last_completion: Some((14_140_114_233, 4_558_899_696_352_170_915)), gauge_len: 7, last_gauge: Some((16_500_000_000, 1.0)), pay_bits: 0x3ec9_2a74_fb21_8608, prov_bits: 0x3f60_624f_f8b3_2701 }),
    (6, Pinned { stats: [3, 1, 2, 2, 0, 0, 0], completions: 4, last_completion: Some((6_779_170_282, 14_842_253_185_942_051_146)), gauge_len: 4, last_gauge: Some((9_000_000_000, 0.0)), pay_bits: 0x3eb7_7cf6_09c1_3fe4, prov_bits: 0x3f40_624f_f8b3_2701 }),
    (7, Pinned { stats: [2, 2, 1, 1, 0, 0, 0], completions: 4, last_completion: Some((1_035_034_549, 11_876_575_118_127_461_097)), gauge_len: 2, last_gauge: Some((3_500_000_000, 0.0)), pay_bits: 0x3eb4_21f7_b669_a9fc, prov_bits: 0x3f33_a92c_c40a_2ece }),
    (8, Pinned { stats: [2, 0, 1, 0, 1, 0, 0], completions: 2, last_completion: Some((6_951_853_943, 14_739_895_303_828_263_826)), gauge_len: 2, last_gauge: Some((7_725_000_000, 0.0)), pay_bits: 0x3ea4_21f6_d53b_96b9, prov_bits: 0x3f1a_36e6_5ab8_3e68 }),
    (9, Pinned { stats: [3, 3, 2, 1, 0, 0, 0], completions: 6, last_completion: Some((1_223_224_293, 18_265_662_638_248_879_127)), gauge_len: 3, last_gauge: Some((3_500_000_000, 1.0)), pay_bits: 0x3eba_d7f4_cdaf_df6f, prov_bits: 0x3f53_a92c_c40a_2ece }),
    (10, Pinned { stats: [10, 6, 3, 2, 0, 0, 0], completions: 16, last_completion: Some((927_970_243, 16_077_239_192_976_333_373)), gauge_len: 5, last_gauge: Some((3_000_000_000, 1.0)), pay_bits: 0x3ed2_06b1_c604_986a, prov_bits: 0x3f58_9377_f50c_ba80 }),
    (11, Pinned { stats: [12, 6, 6, 5, 0, 0, 0], completions: 18, last_completion: Some((7_690_259_969, 7_662_137_190_053_909_183)), gauge_len: 11, last_gauge: Some((10_000_000_000, 1.0)), pay_bits: 0x3ed4_f8b6_f6ce_483e, prov_bits: 0x3f64_7ae3_f6df_f0c0 }),
    (12, Pinned { stats: [7, 4, 4, 2, 1, 0, 0], completions: 10, last_completion: Some((10_271_000_000, 10_506_620_560_862_104_360)), gauge_len: 7, last_gauge: Some((9_500_000_000, 1.0)), pay_bits: 0x3ecc_8573_f75b_aa63, prov_bits: 0x3f60_624f_f8b3_2700 }),
    (13, Pinned { stats: [11, 3, 4, 2, 1, 0, 0], completions: 13, last_completion: Some((4_389_129_259, 16_694_906_175_711_854_050)), gauge_len: 7, last_gauge: Some((3_734_947_088, 1.0)), pay_bits: 0x3ed1_cb60_b7c8_4c6c, prov_bits: 0x3f56_f009_8f61_369a }),
    (14, Pinned { stats: [3, 1, 2, 1, 0, 0, 0], completions: 4, last_completion: Some((1_343_737_314, 7_470_606_081_431_724_675)), gauge_len: 3, last_gauge: Some((3_500_000_000, 1.0)), pay_bits: 0x3eb7_7cf6_09c1_3fe4, prov_bits: 0x3f4a_36e6_5ab8_3e68 }),
    (15, Pinned { stats: [8, 4, 4, 2, 1, 0, 0], completions: 11, last_completion: Some((1_689_000_000, 15_890_109_889_538_339_339)), gauge_len: 7, last_gauge: Some((3_500_000_000, 1.0)), pay_bits: 0x3ece_32f3_2107_7558, prov_bits: 0x3f53_a92c_c40a_2ece }),
    (16, Pinned { stats: [4, 2, 3, 1, 1, 0, 0], completions: 6, last_completion: Some((7_351_000_000, 5_056_117_235_177_758_045)), gauge_len: 5, last_gauge: Some((7_255_000_000, 1.0)), pay_bits: 0x3ec0_c6f8_f27b_0a72, prov_bits: 0x3f5a_36e6_5ab8_3e66 }),
    (17, Pinned { stats: [8, 4, 3, 2, 0, 0, 0], completions: 12, last_completion: Some((9_249_600_158, 6_337_869_608_166_061_127)), gauge_len: 5, last_gauge: Some((11_500_000_000, 1.0)), pay_bits: 0x3ecc_8573_bf10_2592, prov_bits: 0x3f5d_7dc3_260f_4634 }),
    (18, Pinned { stats: [13, 2, 8, 6, 1, 0, 0], completions: 15, last_completion: Some((13_255_597_253, 11_083_303_202_673_848_784)), gauge_len: 15, last_gauge: Some((15_500_000_000, 1.0)), pay_bits: 0x3ed4_f8b6_daa8_85d5, prov_bits: 0x3f69_652f_27e2_7c72 }),
    (19, Pinned { stats: [10, 4, 4, 3, 0, 0, 0], completions: 14, last_completion: Some((6_711_000_000, 8_503_958_225_529_181_263)), gauge_len: 7, last_gauge: Some((9_000_000_000, 1.0)), pay_bits: 0x3ed1_b5cd_6b8e_721d, prov_bits: 0x3f5d_7dc3_260f_4634 }),
    (20, Pinned { stats: [15, 8, 7, 4, 3, 0, 0], completions: 23, last_completion: Some((10_378_000_000, 15_797_132_979_700_779_967)), gauge_len: 14, last_gauge: Some((12_500_000_000, 0.0)), pay_bits: 0x3edb_ea62_98c5_f969, prov_bits: 0x3f5f_2131_8bba_ca1a }),
    (40, Pinned { stats: [16, 0, 6, 3, 1, 0, 1], completions: 16, last_completion: Some((9_297_984_619, 10_488_040_729_259_758_509)), gauge_len: 11, last_gauge: Some((9_500_000_000, 1.0)), pay_bits: 0x3ed7_7cf5_992a_3644, prov_bits: 0x3f5d_7dc3_260f_4634 }),
    (1032, Pinned { stats: [12, 2, 7, 4, 1, 0, 1], completions: 14, last_completion: Some((14_354_586_908, 3_538_805_029_756_375_156)), gauge_len: 13, last_gauge: Some((13_500_000_000, 1.0)), pay_bits: 0x3ed3_4b37_94d6_f878, prov_bits: 0x3f60_624f_f8b3_2700 }),
    (1324, Pinned { stats: [9, 0, 5, 3, 0, 0, 1], completions: 9, last_completion: Some((9_896_270_678, 4_987_799_765_577_512_694)), gauge_len: 9, last_gauge: Some((8_500_000_000, 1.0)), pay_bits: 0x3ec9_2a74_c2d6_0138, prov_bits: 0x3f61_3407_2b88_e8f3 }),
    (1496, Pinned { stats: [13, 3, 6, 5, 0, 1, 0], completions: 15, last_completion: Some((10_000_347_617, 2_566_678_993_513_076_100)), gauge_len: 11, last_gauge: Some((12_500_000_000, 1.0)), pay_bits: 0x3ed4_f8b6_daa8_85d5, prov_bits: 0x3f62_05be_5e5e_aae8 }),
    (1567, Pinned { stats: [12, 2, 4, 2, 0, 0, 1], completions: 14, last_completion: Some((3_187_710_646, 3_151_700_172_689_284_279)), gauge_len: 7, last_gauge: Some((5_500_000_000, 1.0)), pay_bits: 0x3ed2_7477_e3db_5095, prov_bits: 0x3f56_f009_8f61_369c }),
];

#[test]
fn pinned_schedules_reproduce_recorded_observables() {
    for (seed, expected) in &PINNED {
        assert_eq!(&drive(*seed), expected, "schedule {seed}");
    }
}

/// Pins reclamation victim selection:
///
/// 1. only instances idle past the threshold are reclaimed — a recently
///    touched (MRU) instance survives a scan that takes the LRU ones;
/// 2. when a `min_instances` floor limits the cull, the budget is spent
///    in ascending instance-id order, so the oldest idle instances go
///    first and the newest survives.
mod reclamation_order {
    use super::*;

    fn idle_platform(min_instances: u32) -> (Sim, Platform<Worker>, DeploymentId, Vec<InstanceId>) {
        let mut sim = Sim::new(11);
        let platform: Platform<Worker> = Platform::new(&config());
        let dep = platform.register_deployment(
            "pool",
            FunctionConfig {
                vcpus: 2,
                mem_gb: 2.0,
                concurrency: 1,
                max_instances: 8,
                min_instances,
            },
            Box::new(|_ctx| Worker),
        );
        // Three concurrent invocations at concurrency 1 cold-start three
        // instances; run until all are warm and idle.
        for req in 0..3 {
            platform.invoke_http(&mut sim, dep, req, Responder::new(|_, _| {}));
        }
        sim.run();
        let warm = platform.warm_instances(dep);
        assert_eq!(warm.len(), 3, "three instances warmed");
        (sim, platform, dep, warm)
    }

    #[test]
    fn lru_idle_reclaimed_first_mru_survives() {
        let (mut sim, platform, dep, warm) = idle_platform(0);
        platform.run_maintenance(&mut sim);
        // Keep the *last* instance busy-ish: touch it right before the
        // others cross the idle threshold.
        let touch_at = sim.now() + SimDuration::from_millis(1900);
        sim.run_until(touch_at);
        assert!(platform.deliver_tcp(&mut sim, warm[2], 9, Responder::new(|_, _| {})));
        // Next scans: instances 0 and 1 are idle ≥ 2 s and go; the
        // touched one is fresh and stays.
        let check_at = sim.now() + SimDuration::from_millis(700);
        sim.run_until(check_at);
        assert_eq!(platform.stats().reclaims, 2, "the two LRU-idle instances are gone");
        assert_eq!(platform.warm_instances(dep), vec![warm[2]], "the MRU instance survives");
        // Eventually the survivor idles out too.
        let done_at = sim.now() + SimDuration::from_secs(4);
        sim.run_until(done_at);
        platform.stop_maintenance();
        assert_eq!(platform.stats().reclaims, 3);
        assert!(platform.warm_instances(dep).is_empty());
    }

    #[test]
    fn floor_budget_is_spent_in_ascending_id_order() {
        let (mut sim, platform, dep, warm) = idle_platform(1);
        platform.run_maintenance(&mut sim);
        // All three idle out together; the floor of one keeps a single
        // instance, and the cull consumes ids in ascending order — the
        // newest (highest-id) instance is the survivor.
        let deadline = sim.now() + SimDuration::from_secs(4);
        sim.run_until(deadline);
        platform.stop_maintenance();
        assert_eq!(platform.stats().reclaims, 2);
        assert_eq!(platform.warm_instances(dep), vec![warm[2]]);
    }
}
