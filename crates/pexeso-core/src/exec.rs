//! Deterministic parallel execution layer.
//!
//! Every hot stage of the PEXESO pipeline — pivot mapping, grid and
//! inverted-index construction, blocking, verification, multi-query and
//! out-of-core search — is expressed as *independent work over contiguous
//! index ranges* and funnelled through the helpers here. The helpers shard
//! the range across the threads of an [`ExecPolicy`] with
//! `std::thread::scope` and merge shard results in range order, so the
//! output is byte-identical to a sequential run (there are no
//! order-sensitive floating-point reductions across shards). That property
//! is what lets `ExecPolicy` be a pure throughput knob: the differential
//! tests in `tests/exactness.rs` pin `Sequential ≡ Parallel` exactly.
//!
//! No external runtime (rayon et al.) is used: the registry-less build
//! environment bakes in only the standard library, and scoped threads are
//! all these fork-join shapes need.
//!
//! ## Adaptive parallelism
//!
//! [`ExecPolicy::Parallel`]'s thread count is a *ceiling*, not a command:
//! every helper clamps it to the machine's available cores and to a
//! per-shard work break-even before spawning anything, so a parallel
//! policy degenerates to the sequential path whenever threads cannot pay
//! for themselves (an 8-thread request on a 1-core box, or a shard that
//! would carry less work than one spawn+join costs). The break-even floor
//! is calibrated once per process against the actual measured spawn cost.
//! [`ExecPolicy::Fixed`] bypasses the clamp and shards exactly as asked —
//! it keeps the sharded merge code exercised by differential tests on
//! machines where the adaptive policy would (correctly) never shard.
//!
//! ## Partition fan-out
//!
//! A partitioned query's units (one partition each) are planned by
//! [`plan_units`], which is why [`crate::query::Query`]'s default outer
//! policy is [`ExecPolicy::auto`]: the executor, not the caller, decides
//! whether one request's partitions run on several cores.
//!
//! * Resident units ([`UnitWork::Compute`]) are pure compute. They get at
//!   most one thread per core, and only when each thread receives at
//!   least [`MIN_FANOUT_PAIRS`] query × lake vector pairs (scaled by the
//!   spawn calibration). Measured on a 2-core Xeon host, verification
//!   costs 7–18 ns per pair and a 2-thread spawn+join ~45 µs, so the
//!   floor buys ≥ ~3.5 ms of work per extra thread; a short query stays
//!   on the caller's thread and leaves the other cores to concurrent
//!   requests.
//! * Disk units ([`UnitWork::Io`]) run one at a time under the default
//!   `Parallel { threads: 0 }`, so an out-of-core search holds one
//!   partition index in memory, the bound that backend exists for. An
//!   explicit `Parallel { threads: n }` overlaps partition reads on up to
//!   min(n, twice the cores) threads with no work floor, because a thread
//!   waiting on a read costs nothing while another unit computes.

use std::ops::Range;
use std::sync::OnceLock;

use crate::config::ExecPolicy;

/// Below this many work items the thread-spawn overhead dominates and the
/// helpers fall back to the sequential path regardless of policy. Spawning
/// and joining a thread costs on the order of tens of microseconds, so a
/// shard needs roughly a millisecond of work to pay for itself; stages
/// with very cheap per-item cost pass a larger `min_items` of their own.
pub const MIN_PARALLEL_ITEMS: usize = 2048;

/// Spawn+join cost (ns) the `min_items` floors are written against. The
/// calibration below scales the floors up when the machine is slower.
const BASELINE_SPAWN_NS: u64 = 25_000;

/// The machine's available parallelism, resolved once.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// One-time spawn-cost calibration: how many times more expensive a
/// scoped spawn+join is on this machine than the [`BASELINE_SPAWN_NS`]
/// the `min_items` floors assume. The minimum of a few trials filters
/// scheduler noise; capped at 8× so one pathological measurement cannot
/// effectively disable parallelism.
fn spawn_cost_factor() -> usize {
    static FACTOR: OnceLock<usize> = OnceLock::new();
    *FACTOR.get_or_init(|| {
        let mut best = u64::MAX;
        for _ in 0..4 {
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                scope.spawn(|| {});
            });
            best = best.min(start.elapsed().as_nanos() as u64);
        }
        (best / BASELINE_SPAWN_NS).clamp(1, 8) as usize
    })
}

/// Resolve how many shards a compute-bound stage may use for `n` items:
/// the policy's requested ceiling, clamped to the machine's cores and to
/// the number of shards that each still carry at least `min_items` items
/// (scaled by the calibrated spawn cost). [`ExecPolicy::Fixed`] is exempt
/// from the clamp. The result is a thread *count* only — sharding stays
/// deterministic, so the clamp can never change results.
fn plan_threads(policy: ExecPolicy, n: usize, min_items: usize) -> usize {
    match policy {
        ExecPolicy::Sequential => 1,
        ExecPolicy::Fixed { threads } => threads.max(1),
        ExecPolicy::Parallel { .. } => {
            let requested = policy.effective_threads();
            if requested <= 1 {
                return 1;
            }
            let floor = min_items.max(1).saturating_mul(spawn_cost_factor());
            requested.min(hardware_threads()).min((n / floor).max(1))
        }
    }
}

/// Query × lake vector pairs one extra fan-out thread must receive
/// before a resident partition fan-out spawns it (before the spawn-cost
/// scaling). See the [module docs](self#partition-fan-out).
pub const MIN_FANOUT_PAIRS: u64 = 500_000;

/// What one fan-out unit (one partition) of a query costs, as
/// [`plan_units`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitWork {
    /// Each unit first reads its partition from disk. The default policy
    /// runs them one at a time, holding one partition in memory; an
    /// explicit thread count overlaps the reads, which pays even on one
    /// core, so there is no work floor.
    Io,
    /// Units compute over resident partitions; `pairs` is the query
    /// vectors × lake vectors over all units together.
    Compute { pairs: u64 },
}

impl UnitWork {
    /// Compute units: `query_vectors` against `lake_vectors` resident
    /// vectors.
    pub fn resident(query_vectors: usize, lake_vectors: usize) -> Self {
        UnitWork::Compute {
            pairs: (query_vectors as u64).saturating_mul(lake_vectors as u64),
        }
    }
}

/// The resident fan-out floor in pairs per thread on this machine:
/// [`MIN_FANOUT_PAIRS`] scaled by the calibrated spawn cost.
pub fn fanout_floor_pairs() -> u64 {
    MIN_FANOUT_PAIRS.saturating_mul(spawn_cost_factor() as u64)
}

/// Threads for `n` coarse units of `work` under `policy`.
/// [`ExecPolicy::Fixed`] is exact (at most one thread per unit).
/// [`ExecPolicy::Parallel`] is a ceiling: resident units use at most the
/// cores and only as many threads as each get [`fanout_floor_pairs`]
/// pairs; disk units use one thread under `Parallel { threads: 0 }` and
/// up to twice the cores under an explicit count. Never below 1.
pub fn plan_units(policy: ExecPolicy, n: usize, work: UnitWork) -> usize {
    let n = n.max(1);
    match policy {
        ExecPolicy::Sequential => 1,
        ExecPolicy::Fixed { threads } => threads.max(1).min(n),
        ExecPolicy::Parallel { threads } => {
            let ceiling = policy.effective_threads().min(n);
            match work {
                UnitWork::Io if threads == 0 => 1,
                UnitWork::Io => ceiling.min(hardware_threads() * 2),
                UnitWork::Compute { pairs } => {
                    let by_work = (pairs / fanout_floor_pairs()).max(1);
                    ceiling
                        .min(hardware_threads())
                        .min(usize::try_from(by_work).unwrap_or(usize::MAX))
                }
            }
        }
    }
}

/// Split `0..n` into at most `threads` contiguous, non-empty ranges.
fn shards(n: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Run `f` over contiguous shards of `0..n`, returning one result per shard
/// in range order. Sequential policies (or small `n`) run a single shard on
/// the calling thread.
pub fn map_ranges<T, F>(policy: ExecPolicy, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    map_ranges_min(policy, n, MIN_PARALLEL_ITEMS, f)
}

/// [`map_ranges`] with an explicit parallelism cut-off, for stages whose
/// per-item cost is large (e.g. one column or one whole query per item).
pub fn map_ranges_min<T, F>(policy: ExecPolicy, n: usize, min_items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = plan_threads(policy, n, min_items);
    if threads <= 1 || n < 2 {
        return vec![f(0..n)];
    }
    let ranges = shards(n, threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let f = &f;
                scope.spawn(move || f(r))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pexeso worker thread panicked"))
            .collect()
    })
}

/// Fill `out` (viewed as `n = out.len() / width` logical slots of `width`
/// elements) by handing each shard of slots its disjoint `&mut` window.
/// `f(slot_range, window)` writes `window[(i - slot_range.start) * width ..]`
/// for each slot `i`. Deterministic: slot values never depend on sharding.
pub fn fill_slots<T, F>(policy: ExecPolicy, out: &mut [T], width: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    fill_slots_min(policy, out, width, MIN_PARALLEL_ITEMS, f)
}

/// [`fill_slots`] with an explicit parallelism cut-off, for stages whose
/// per-slot cost is far from the default assumption (e.g. leaf-key packing
/// at a few ns per slot needs far more slots to amortise a spawn).
pub fn fill_slots_min<T, F>(policy: ExecPolicy, out: &mut [T], width: usize, min_items: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(width > 0, "slot width must be positive");
    debug_assert_eq!(out.len() % width, 0);
    let n = out.len() / width;
    let threads = plan_threads(policy, n, min_items);
    if threads <= 1 || n < 2 {
        f(0..n, out);
        return;
    }
    let ranges = shards(n, threads);
    std::thread::scope(|scope| {
        let mut rest = out;
        for r in ranges {
            let (window, tail) = rest.split_at_mut((r.end - r.start) * width);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(r, window));
        }
    });
}

/// Dynamic work-stealing loop for *coarse* units of uneven cost (one
/// partition per unit) on `threads` threads, as [`plan_units`] plans
/// them. `f(i)` runs once for every `i in 0..n`; results are returned in
/// unit order. The assignment of units to threads is dynamic, which is
/// safe exactly because each unit's result is independent of every
/// other.
///
/// Stops handing out new units after the first `Err` (or worker panic,
/// converted to the supplied error) and returns the lowest-indexed
/// failure, like a sequential `?` loop would. Units already in flight on
/// other threads still run to completion; their results are discarded
/// when an earlier unit failed.
pub fn try_map_units<T, E, F>(
    threads: usize,
    n: usize,
    on_panic: impl Fn() -> E + Sync,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let abort = std::sync::atomic::AtomicBool::new(false);
    let mut out: Vec<Option<Result<T, E>>> = (0..n).map(|_| None).collect();
    let slots = std::sync::Mutex::new(&mut out);
    let worker = || loop {
        if abort.load(std::sync::atomic::Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
            .unwrap_or_else(|_| Err(on_panic()));
        if r.is_err() {
            abort.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        slots.lock().expect("result lock poisoned")[i] = Some(r);
    };
    // The calling thread is one of the `threads`: it spawns one fewer
    // and works instead of waiting, which saves a spawn and the extra
    // allocator arena a further thread would keep.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });
    // Surface the lowest-indexed error (matching a sequential loop); a
    // trailing `None` can only follow an abort.
    let mut done = Vec::with_capacity(n);
    for slot in out {
        match slot {
            Some(Ok(v)) => done.push(v),
            Some(Err(e)) => return Err(e),
            None => break,
        }
    }
    if done.len() == n {
        Ok(done)
    } else {
        // Aborted: some later unit failed before earlier ones ran.
        Err(on_panic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_range_without_overlap() {
        for n in [0usize, 1, 7, 100, 2048, 10_001] {
            for t in [1usize, 2, 3, 8, 64] {
                let s = shards(n, t);
                let mut covered = 0;
                let mut expected_start = 0;
                for r in &s {
                    assert_eq!(r.start, expected_start);
                    assert!(!r.is_empty());
                    covered += r.len();
                    expected_start = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn map_ranges_parallel_equals_sequential() {
        let n = 50_000;
        let work = |r: Range<usize>| -> u64 { r.map(|i| (i as u64).wrapping_mul(31)).sum() };
        let seq: u64 = map_ranges(ExecPolicy::Sequential, n, work)
            .into_iter()
            .sum();
        // Fixed bypasses the adaptive clamp, so the sharded merge genuinely
        // runs even on a single-core machine; Parallel may legitimately
        // degrade to one shard there but must still agree.
        for policy in [
            ExecPolicy::Fixed { threads: 7 },
            ExecPolicy::Parallel { threads: 7 },
        ] {
            let par: u64 = map_ranges(policy, n, work).into_iter().sum();
            assert_eq!(seq, par, "{policy:?}");
        }
    }

    #[test]
    fn fill_slots_parallel_equals_sequential() {
        let n = 10_000;
        let width = 3;
        let f = |slots: Range<usize>, window: &mut [u32]| {
            for (k, i) in slots.enumerate() {
                for w in 0..width {
                    window[k * width + w] = (i * width + w) as u32;
                }
            }
        };
        let mut seq = vec![0u32; n * width];
        fill_slots(ExecPolicy::Sequential, &mut seq, width, f);
        for policy in [
            ExecPolicy::Fixed { threads: 5 },
            ExecPolicy::Parallel { threads: 5 },
        ] {
            let mut par = vec![0u32; n * width];
            fill_slots(policy, &mut par, width, f);
            assert_eq!(seq, par, "{policy:?}");
        }
        assert_eq!(seq[7], 7);
    }

    #[test]
    fn adaptive_clamp_bounds_parallel_but_not_fixed() {
        let hw = hardware_threads();
        assert!(hw >= 1);
        // Parallel: never above the core count, never sharding work below
        // the spawn break-even, and never zero.
        for (n, min_items) in [(0usize, 2048usize), (100, 2048), (1 << 20, 2048), (12, 2)] {
            let t = plan_threads(ExecPolicy::Parallel { threads: 64 }, n, min_items);
            assert!(t >= 1 && t <= hw, "n={n} -> {t}");
            if t > 1 {
                assert!(n / t >= min_items, "shard below break-even: n={n} t={t}");
            }
        }
        // Too little total work is always one shard, whatever the ceiling.
        assert_eq!(
            plan_threads(ExecPolicy::Parallel { threads: 64 }, 100, 2048),
            1
        );
        // Fixed is exempt from every clamp.
        assert_eq!(
            plan_threads(ExecPolicy::Fixed { threads: 64 }, 100, 2048),
            64
        );
        assert_eq!(plan_threads(ExecPolicy::Sequential, 1 << 20, 1), 1);
    }

    #[test]
    fn unit_plans_io_and_fixed() {
        let hw = hardware_threads();
        let par = ExecPolicy::Parallel { threads: 64 };
        // An explicit count overlaps disk units up to 2× cores, floor-free.
        let io = plan_units(par, 64, UnitWork::Io);
        assert!(io >= 1 && io <= hw * 2 && io == 64.min(hw * 2), "{io}");
        assert_eq!(plan_units(par, 1, UnitWork::Io), 1);
        // The default keeps one disk partition in memory at a time.
        assert_eq!(plan_units(ExecPolicy::auto(), 64, UnitWork::Io), 1);
        // Fixed is exact up to one thread per unit, whatever the work.
        let tiny = UnitWork::Compute { pairs: 1 };
        assert_eq!(plan_units(ExecPolicy::Fixed { threads: 6 }, 64, tiny), 6);
        assert_eq!(plan_units(ExecPolicy::Fixed { threads: 6 }, 3, tiny), 3);
        assert_eq!(plan_units(ExecPolicy::Sequential, 64, UnitWork::Io), 1);
        // Zero units still plan one thread.
        assert_eq!(plan_units(par, 0, UnitWork::Io), 1);
    }

    #[test]
    fn resident_fanout_needs_the_work_floor() {
        let hw = hardware_threads();
        let floor = fanout_floor_pairs();
        assert!(floor >= MIN_FANOUT_PAIRS);
        let auto = ExecPolicy::auto();
        // Below the floor: one thread, whatever the ceiling or unit count.
        for pairs in [0, 1, floor - 1, 2 * floor - 1] {
            let work = UnitWork::Compute { pairs };
            assert_eq!(plan_units(auto, 4, work), 1, "pairs={pairs}");
            assert_eq!(plan_units(ExecPolicy::Parallel { threads: 64 }, 4, work), 1);
        }
        // Far above it: as many threads as cores and units allow.
        let big = UnitWork::Compute {
            pairs: floor * 1000,
        };
        assert_eq!(plan_units(auto, 4, big), hw.min(4));
        assert_eq!(plan_units(auto, 1, big), 1);
        assert_eq!(
            plan_units(ExecPolicy::Parallel { threads: 64 }, 64, big),
            hw
        );
        // In between, every thread still gets a floor's worth of pairs.
        let three = UnitWork::Compute { pairs: floor * 3 };
        assert_eq!(plan_units(auto, 64, three), hw.min(3));
        // An explicit ceiling still caps, and Sequential pins one thread.
        assert_eq!(plan_units(ExecPolicy::Parallel { threads: 1 }, 4, big), 1);
        assert_eq!(plan_units(ExecPolicy::Sequential, 4, big), 1);
    }

    #[test]
    fn try_map_units_short_circuits_and_reports_lowest_error() {
        for threads in [1, 4] {
            let ok = try_map_units(threads, 10, || "panic", |i| Ok::<_, &str>(i * 2));
            assert_eq!(ok.unwrap(), (0..10).map(|i| i * 2).collect::<Vec<_>>());

            let err = try_map_units(
                threads,
                10,
                || "panic".to_string(),
                |i| {
                    if i >= 3 {
                        Err(format!("unit {i} failed"))
                    } else {
                        Ok(i)
                    }
                },
            );
            // Lowest-indexed failure, like a sequential `?` loop.
            assert_eq!(err.unwrap_err(), "unit 3 failed", "{threads} threads");
        }
    }

    #[test]
    fn try_map_units_converts_worker_panics_to_errors() {
        let err = try_map_units(
            3,
            6,
            || "worker panicked",
            |i| {
                if i == 2 {
                    panic!("boom");
                }
                Ok::<_, &str>(i)
            },
        );
        assert_eq!(err.unwrap_err(), "worker panicked");
    }

    #[test]
    fn empty_inputs_are_fine() {
        let none = try_map_units(4, 0, || (), Ok::<_, ()>);
        assert_eq!(none.unwrap().len(), 0);
        let v = map_ranges(ExecPolicy::auto(), 0, |r| r.len());
        assert_eq!(v.into_iter().sum::<usize>(), 0);
        let mut empty: [u8; 0] = [];
        fill_slots(ExecPolicy::auto(), &mut empty, 4, |_, _| {});
    }
}
