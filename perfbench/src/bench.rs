//! One benchmark run: set up a workload's deployment, drive its load,
//! check every answer, and (traced) measure each layer on the same
//! queries.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pexeso_core::config::{JoinThreshold, Tau};
use pexeso_core::metric::Euclidean;
use pexeso_core::outofcore::{PartitionedLake, ResidentPartitions};
use pexeso_core::query::Query;
use pexeso_lake::generator::SyntheticLake;
use pexeso_serve::stat_value;

use crate::check::{self, IngestCheck};
use crate::deploy::{
    build_deployment, dir_bytes, embed_lake, make_columns, start_routed, Daemon, Embedded,
    EmbeddedColumn, Profile, Res, Routed,
};
use crate::ladder;
use crate::load::{self, Pick, Pool, Sample, Stop, WriterLog, WriterPlan};
use crate::trace::Tracer;
use crate::util::{median, ms, quantile, Json, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpenThreshold,
    WdcRoutedTopk,
    WdcIngest,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "open_threshold" => Some(Self::OpenThreshold),
            "wdc_routed_topk" => Some(Self::WdcRoutedTopk),
            "wdc_ingest" => Some(Self::WdcIngest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::OpenThreshold => "open_threshold",
            Self::WdcRoutedTopk => "wdc_routed_topk",
            Self::WdcIngest => "wdc_ingest",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `pexeso` binary the daemons run.
    pub bin: PathBuf,
    /// Scratch directory for deployments.
    pub work: PathBuf,
    /// Where the span file goes.
    pub out: PathBuf,
}

/// Generator seed of the lakes. Each workload serves one fixed lake, as
/// the paper's experiments serve the fixed OPEN and WDC corpora; the run's
/// seed draws the query pools, the query streams and the writes. With a
/// lake per seed, five seeds of `open_threshold` spread 0.10–0.13 in the
/// query metrics; with one lake, 0.05–0.09.
const LAKE_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Zipf-drawn query pools. The routed pool holds `ROUTED_BASE` generated
/// columns, each also with one value left out (`ROUTED_VARIANTS`), about
/// 41k distinct queries: after `ROUTED_WARMUP` untimed requests a third of
/// the requests still miss the shards' result caches, and that share
/// drifts little over a run, so the median is a cache hit and p90 a full
/// search whatever the throughput. The ingest pool is small because every
/// APPLY clears the cache anyway.
const ROUTED_BASE: usize = 2048;
const ROUTED_VARIANTS: usize = 19;
const ROUTED_WARMUP: usize = 4000;
const INGEST_POOL: usize = 256;
/// The `open_threshold` pool: `OPEN_BASE_PER_S` generated columns per
/// second of run (about twice what the client completes), each
/// also asked with one of its values left out (`OPEN_VARIANTS`), so the
/// pool holds about 64 times the queries this benchmark's hosts complete
/// and running short takes a far faster program. The whole columns come
/// first in pool order, so a run that uses fewer than the base columns
/// asks no variant.
const OPEN_BASE_PER_S: f64 = 20.0;
const OPEN_VARIANTS: usize = 63;
/// Writer schedule of `wdc_ingest`: one write per interval, a drop every
/// `DROP_EVERY`-th (of the tables the writes since the last drop
/// ingested, taken from the oldest beyond `KEEP_INGESTED` live ingested
/// tables, else from the base), compaction after `COMPACT_EVERY` log
/// records.
const WRITE_INTERVAL: Duration = Duration::from_millis(30);
pub(crate) const DROP_EVERY: usize = 10;
const KEEP_INGESTED: usize = 90;
const COMPACT_EVERY: usize = 100;
/// Steal share below which a second of the window always counts as calm.
const CALM_STEAL: f64 = 0.02;
/// Writes of the traced delta probe.
const PROBE_WRITES: usize = 40;

/// A measured metric with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<(String, Json)>,
}

impl Report {
    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub(crate) fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }
}

/// The serving front end the load goes to.
pub(crate) enum Front {
    Single(Daemon),
    Routed(Routed),
}

impl Front {
    fn addr(&self) -> &str {
        match self {
            Front::Single(d) => &d.addr,
            Front::Routed(r) => &r.router.addr,
        }
    }

    /// The daemons that execute queries and hold result caches.
    fn executors(&self) -> Vec<&Daemon> {
        match self {
            Front::Single(d) => vec![d],
            Front::Routed(r) => r.shards.iter().collect(),
        }
    }

    /// Summed peak resident set of the serving processes, and their count.
    fn peak_rss_kb(&self) -> (u64, usize) {
        match self {
            Front::Single(d) => (d.vm_hwm_kb(), 1),
            Front::Routed(r) => {
                let shards: u64 = r.shards.iter().map(|d| d.vm_hwm_kb()).sum();
                (r.router.vm_hwm_kb() + shards, r.shards.len() + 1)
            }
        }
    }

    fn shutdown(self) {
        match self {
            Front::Single(d) => d.shutdown(),
            Front::Routed(r) => r.shutdown(),
        }
    }
}

/// Summed STATS counters of `daemons`.
pub(crate) fn stats_sum(daemons: &[&Daemon], keys: &[&str]) -> Res<Vec<f64>> {
    let mut out = vec![0.0; keys.len()];
    for d in daemons {
        let text = d
            .client()?
            .stats_text()
            .map_err(|e| format!("STATS: {e}"))?;
        for (o, k) in out.iter_mut().zip(keys) {
            *o += stat_value(&text, k).unwrap_or(0.0);
        }
    }
    Ok(out)
}

pub(crate) const QUERY_REQUESTS: [&str; 2] = ["search.requests", "topk.requests"];
const CACHE_KEYS: [&str; 2] = ["cache.hits", "cache.misses"];

/// Total and steal CPU ticks of the host so far (zeros when unreadable).
fn cpu_ticks() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 0.0);
    };
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0.0))
}

/// The steal share of each whole second of the window, from CPU counter
/// samples taken through it.
fn slot_steal(ticks: &[(Instant, (f64, f64))], start: Instant, seconds: f64) -> Vec<f64> {
    let at = |t: Instant| {
        let i = ticks
            .partition_point(|(when, _)| *when < t)
            .min(ticks.len() - 1);
        ticks[i].1
    };
    (0..(seconds as usize).max(1))
        .map(|k| {
            let (t0, s0) = at(start + Duration::from_secs(k as u64));
            let (t1, s1) = at(start + Duration::from_secs(k as u64 + 1));
            (s1 - s0) / (t1 - t0).max(1.0)
        })
        .collect()
}

/// The calm seconds of the window: those whose steal share is at most
/// `CALM_STEAL` or at most the median second's. Host noise on a shared
/// machine comes in bursts that slow every layer at once; the end-to-end
/// metrics are taken over the calm seconds so that a burst moves them
/// less. On a quiet host every second is calm.
fn calm_slots(slot_steal: &[f64]) -> Vec<bool> {
    let cut = median(slot_steal).max(CALM_STEAL);
    slot_steal.iter().map(|&s| s <= cut).collect()
}

pub(crate) fn spawn_single(bin: &Path, dir: &Path) -> Res<Daemon> {
    let d = Daemon::spawn(bin, &["serve", "--index", &dir.to_string_lossy()])?;
    d.wait_ready()?;
    Ok(d)
}

fn percentile_metrics(r: &mut Report, prefix: &str, lat: &[f64], p99: bool) {
    let n = lat.len();
    r.e2e(&format!("{prefix}_p50_ms"), quantile(lat, 0.5), "ms", n);
    r.e2e(&format!("{prefix}_p90_ms"), quantile(lat, 0.9), "ms", n);
    // p99 needs at least ten samples beyond it.
    if p99 && n >= 1000 {
        r.e2e(&format!("{prefix}_p99_ms"), quantile(lat, 0.99), "ms", n);
    }
}

/// What set-up left running, and how long each repetition took.
pub(crate) struct Deployed {
    pub(crate) front: Front,
    pub(crate) emb: Embedded,
    pub(crate) setup_s: Vec<f64>,
    pub(crate) embed_us_per_value: Vec<f64>,
    pub(crate) build_s: Vec<f64>,
}

/// Set up `SETUP_REPS` times (embed, build partitions, split, spawn,
/// first good reply), keeping the last deployment running.
fn set_up(a: &Args, lake: &SyntheticLake, dim: usize, dirs: &Dirs) -> Res<Deployed> {
    let (mut setup_s, mut embed_us_per_value, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Front, Embedded)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((front, _)) = last.take() {
            front.shutdown();
        }
        let t0 = Instant::now();
        let emb = embed_lake(lake, dim)?;
        embed_us_per_value.push(t0.elapsed().as_secs_f64() * 1e6 / emb.values as f64);
        build_s.push(build_deployment(&emb.columns, dim, &dirs.unsplit)?.as_secs_f64());
        let front = match a.workload {
            Workload::WdcRoutedTopk => {
                Front::Routed(start_routed(&a.bin, &dirs.unsplit, &dirs.shards)?)
            }
            _ => Front::Single(spawn_single(&a.bin, &dirs.unsplit)?),
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((front, emb));
    }
    let (front, emb) = last.expect("at least one set-up");
    Ok(Deployed {
        front,
        emb,
        setup_s,
        embed_us_per_value,
        build_s,
    })
}

pub(crate) struct Dirs {
    pub(crate) unsplit: PathBuf,
    pub(crate) shards: PathBuf,
}

/// The loaded phase's record.
pub(crate) struct Loaded {
    /// Untimed warm-up requests (routed workload only).
    pub(crate) warmup: Vec<Sample>,
    pub(crate) samples: Vec<Sample>,
    pub(crate) writer: WriterLog,
    pub(crate) window_s: f64,
    /// Seconds since the origin when the window opened.
    pub(crate) start_s: f64,
    /// Share of host CPU time stolen by other guests in each whole second
    /// of the window.
    pub(crate) slot_steal: Vec<f64>,
    /// Result-cache hits and misses, and query requests, at the executors
    /// over the window (the warm-up excluded).
    pub(crate) cache_hits: f64,
    pub(crate) cache_misses: f64,
    pub(crate) executor_requests: f64,
}

/// Drive the workload's load against the front end for `a.seconds`, with
/// one closed-loop client: one request in flight. The load generator, the
/// daemons and the router share the host's cores; with a client per core
/// the latencies measured the scheduler, and a spell of host CPU steal
/// halved routed throughput.
fn loaded_phase(a: &Args, ctx: &RunCtx, front: &Front, tracer: &Tracer) -> Res<Loaded> {
    let execs = front.executors();
    let run = |pick: &Pick, tracer: &Tracer, stop| {
        let span = match a.workload {
            Workload::WdcRoutedTopk => "load.router",
            _ => "load.serve",
        };
        load::closed_loop(
            front.addr(),
            ctx.origin,
            &ctx.query,
            &ctx.pool,
            pick,
            tracer,
            span,
            stop,
        )
    };
    let zipf = |seed: u64| Pick::Zipf(Zipf::new(ctx.pool.len()), seed);
    let warmup = match a.workload {
        Workload::WdcRoutedTopk => run(
            &zipf(!a.seed),
            &Tracer::new(false, ctx.origin),
            Stop::After(ROUTED_WARMUP),
        )?,
        _ => Vec::new(),
    };
    // The executors' counters are read after the warm-up, so the cache
    // and request figures cover the measured window only.
    let cache_before = stats_sum(&execs, &CACHE_KEYS)?;
    let req_before = stats_sum(&execs, &QUERY_REQUESTS)?;
    let start = Instant::now();
    let until = Stop::At(start + Duration::from_secs_f64(a.seconds));
    // Sample the host's CPU counters through the window so that seconds
    // in which the hypervisor ran other guests can be set aside.
    let stop_sampling = AtomicBool::new(false);
    let plan = WriterPlan {
        dir: &ctx.dirs.unsplit,
        addr: front.addr(),
        interval: WRITE_INTERVAL,
        compact_every: COMPACT_EVERY,
        drop_every: DROP_EVERY,
        keep_ingested: KEEP_INGESTED,
        pool: &ctx.ingest_pool,
        base_names: &ctx.base_names,
        seed: a.seed,
    };
    let end = start + Duration::from_secs_f64(a.seconds);
    let (samples, writer, ticks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut ticks = vec![(Instant::now(), cpu_ticks())];
            while !stop_sampling.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                ticks.push((Instant::now(), cpu_ticks()));
            }
            ticks
        });
        let writer = (a.workload == Workload::WdcIngest)
            .then(|| s.spawn(|| load::writer(&plan, start, end, ctx.origin, tracer)));
        let samples = match a.workload {
            Workload::OpenThreshold => run(&Pick::Unique, tracer, until),
            _ => run(&zipf(a.seed), tracer, until),
        };
        let writer = writer.map_or(Ok(WriterLog::default()), |w| {
            w.join().map_err(|_| "writer panicked".to_string())
        });
        stop_sampling.store(true, Ordering::Relaxed);
        let ticks = sampler.join().expect("CPU sampler panicked");
        (samples, writer, ticks)
    });
    let (samples, writer) = (samples?, writer?);
    let window_s = start.elapsed().as_secs_f64().max(a.seconds);
    let cache_after = stats_sum(&execs, &CACHE_KEYS)?;
    let req_after = stats_sum(&execs, &QUERY_REQUESTS)?;
    Ok(Loaded {
        warmup,
        samples,
        writer,
        window_s,
        slot_steal: slot_steal(&ticks, start, a.seconds),
        start_s: (start - ctx.origin).as_secs_f64(),
        cache_hits: cache_after[0] - cache_before[0],
        cache_misses: cache_after[1] - cache_before[1],
        executor_requests: req_after.iter().sum::<f64>() - req_before.iter().sum::<f64>(),
    })
}

/// The inputs every phase shares.
pub(crate) struct RunCtx {
    pub(crate) origin: Instant,
    pub(crate) nproc: usize,
    pub(crate) query: Query,
    pub(crate) pool: Pool,
    pub(crate) ingest_pool: Vec<EmbeddedColumn>,
    pub(crate) base_names: Vec<String>,
    pub(crate) dirs: Dirs,
}

/// The correctness gate over the loaded phase: every reply against the
/// resident answer (the ingest workload against its write timeline and,
/// after the run, the live columns), and a seeded sample against the
/// oracle. Adds to the report's attempted, failed and wrong counts.
fn check_loaded(
    rep: &mut Report,
    a: &Args,
    ctx: &RunCtx,
    d: &Deployed,
    l: &Loaded,
    resident: &ResidentPartitions<Euclidean>,
) -> Res<()> {
    let mut distinct: Vec<usize> = l
        .samples
        .iter()
        .chain(&l.warmup)
        .map(|s| s.qi)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    distinct.sort_unstable();
    let refs = check::references(resident, &ctx.query, &ctx.pool, &distinct, ctx.nproc)?;
    let failed_ops = l
        .samples
        .iter()
        .chain(&l.warmup)
        .filter(|s| !s.good())
        .count()
        + l.writer.writes.iter().filter(|w| w.error.is_some()).count()
        + l.writer
            .compactions
            .iter()
            .filter(|c| c.error.is_some())
            .count();
    if let Some(s) = l.samples.iter().chain(&l.warmup).find(|s| !s.good()) {
        eprintln!(
            "query failed: {:?} (exact={})",
            s.hits.as_ref().err(),
            s.exact
        );
    }
    for e in l.writer.writes.iter().filter_map(|w| w.error.as_ref()) {
        eprintln!("write failed: {e}");
    }
    let mut wrong = match a.workload {
        Workload::WdcIngest => {
            let ic = IngestCheck {
                base: &d.emb.columns,
                base_refs: &refs,
                queries: &ctx.pool,
                ingest_pool: &ctx.ingest_pool,
                writer: &l.writer,
                query: &ctx.query,
            };
            let readers_wrong = ic.check_readers(&l.samples)?;
            let (checked, final_wrong) = ic.check_final(&d.front.executors()[0].client()?)?;
            rep.attempted += checked as u64;
            readers_wrong + final_wrong
        }
        _ => {
            check::check_exact(&l.samples, &refs, &ctx.query, &ctx.pool)
                + check::check_exact(&l.warmup, &refs, &ctx.query, &ctx.pool)
        }
    };
    let oracle_n = if a.workload == Workload::OpenThreshold {
        2
    } else {
        8
    };
    wrong += check::oracle_sample(
        &d.emb.columns,
        &ctx.query,
        &ctx.pool,
        &refs,
        oracle_n,
        a.seed,
    )?
    .1;
    rep.attempted +=
        (l.samples.len() + l.warmup.len() + l.writer.writes.len() + l.writer.compactions.len())
            as u64;
    rep.failed += (failed_ops + wrong) as u64;
    rep.wrong += wrong as u64;
    Ok(())
}

/// The end-to-end metrics of the loaded phase, plus diagnostics.
fn end_to_end(rep: &mut Report, a: &Args, d: &Deployed, l: &Loaded, ctx: &RunCtx, dim: usize) {
    let calm = calm_slots(&l.slot_steal);
    let in_calm = |s: &&Sample| {
        let slot = (s.recv - l.start_s).max(0.0) as usize;
        calm.get(slot).copied().unwrap_or(false)
    };
    let good: Vec<&Sample> = l
        .samples
        .iter()
        .filter(|s| s.good())
        .filter(in_calm)
        .collect();
    let lat: Vec<f64> = good.iter().map(|s| s.latency_ms).collect();
    let calm_s = calm.iter().filter(|&&c| c).count();
    rep.e2e(
        "query_qps",
        good.len() as f64 / calm_s as f64,
        "1/s",
        good.len(),
    );
    percentile_metrics(rep, "query", &lat, true);
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.e2e("failed_frac", failed_frac, "ratio", rep.attempted as usize);
    rep.e2e("setup_s", median(&d.setup_s), "s", d.setup_s.len());
    let (ingest_lat, live_vectors) = ingest_facts(&l.writer, &ctx.ingest_pool, &d.emb);
    if a.workload == Workload::WdcIngest {
        percentile_metrics(rep, "ingest", &ingest_lat, false);
    }
    let (rss_kb, procs) = d.front.peak_rss_kb();
    rep.e2e("peak_rss_mb", rss_kb as f64 / 1024.0, "MB", procs);
    let disk: u64 = match &d.front {
        Front::Single(_) => dir_bytes(&ctx.dirs.unsplit),
        Front::Routed(r) => r.dirs.iter().map(|d| dir_bytes(d)).sum(),
    };
    rep.e2e(
        "disk_bytes_ratio",
        disk as f64 / (live_vectors * dim * 4) as f64,
        "ratio",
        1,
    );

    let mut per_second = vec![0i64; l.slot_steal.len()];
    for s in l.samples.iter().filter(|s| s.good()) {
        if let Some(n) = per_second.get_mut((s.recv - l.start_s).max(0.0) as usize) {
            *n += 1;
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let notes = [
        ("lake_vectors", Json::Int(d.emb.columns.n_vectors() as i64)),
        ("lake_columns", Json::Int(d.emb.columns.n_columns() as i64)),
        ("window_s", Json::Num(l.window_s)),
        (
            "per_second",
            Json::Arr(per_second.into_iter().map(Json::Int).collect()),
        ),
        // Host noise during the window: the share of CPU time the
        // hypervisor gave to other guests, from /proc/stat, per second.
        (
            "steal_per_second",
            Json::Arr(l.slot_steal.iter().map(|&x| Json::Num(x)).collect()),
        ),
        ("steal_frac", Json::Num(mean(&l.slot_steal))),
        ("calm_seconds", Json::Int(calm_s as i64)),
        (
            "cache_hit_frac",
            Json::Num(l.cache_hits / (l.cache_hits + l.cache_misses).max(1.0)),
        ),
        ("warmup_requests", Json::Int(l.warmup.len() as i64)),
        ("writes", Json::Int(l.writer.writes.len() as i64)),
        ("compactions", Json::Int(l.writer.compactions.len() as i64)),
        ("writer_max_lag_s", Json::Num(l.writer.max_lag_s)),
    ];
    rep.notes
        .extend(notes.into_iter().map(|(k, v)| (k.to_string(), v)));
}

pub fn run(a: &Args) -> Res<Report> {
    let origin = Instant::now();
    let tracer = Tracer::new(a.trace, origin);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = match a.workload {
        Workload::OpenThreshold => Profile::open(LAKE_SEED),
        _ => Profile::wdc(LAKE_SEED),
    };
    let tau = Tau::Ratio(0.06);
    let query = match a.workload {
        Workload::WdcRoutedTopk => Query::topk(tau, 10),
        _ => Query::threshold(tau, JoinThreshold::Ratio(0.6)),
    };
    let lake = SyntheticLake::generate(profile.config.clone());
    let dirs = Dirs {
        unsplit: a.work.join("lake"),
        shards: a.work.join("shards"),
    };
    let d = set_up(a, &lake, profile.dim, &dirs)?;

    // Query pools (not part of set-up).
    let columns = |n, salt, prefix| {
        let salt = a.seed.wrapping_mul(8).wrapping_add(salt);
        make_columns(&lake, &d.emb.embedder, n, salt, prefix, nproc)
    };
    let pool = match a.workload {
        Workload::OpenThreshold => {
            let n = (a.seconds * OPEN_BASE_PER_S).ceil() as usize + 8;
            Pool::new(columns(n, 1, "query"), OPEN_VARIANTS)
        }
        Workload::WdcRoutedTopk => Pool::new(columns(ROUTED_BASE, 1, "query"), ROUTED_VARIANTS),
        Workload::WdcIngest => Pool::new(columns(INGEST_POOL, 1, "query"), 0),
    };
    let ingest_pool = match a.workload {
        Workload::WdcIngest => {
            let n = (a.seconds / WRITE_INTERVAL.as_secs_f64()).ceil() as usize + 8;
            columns(n, 3, "ingest")
        }
        _ => Vec::new(),
    };
    let ctx = RunCtx {
        origin,
        nproc,
        query,
        pool,
        ingest_pool,
        base_names: d
            .emb
            .columns
            .columns()
            .iter()
            .map(|c| c.table_name.clone())
            .collect(),
        dirs,
    };

    // The in-process reference: resident partitions of the unsplit lake.
    let t0 = Instant::now();
    let resident = PartitionedLake::open(&ctx.dirs.unsplit)
        .and_then(|l| ResidentPartitions::load(&l, Euclidean))
        .map_err(|e| e.to_string())?;
    let load_ms = ms(t0.elapsed());

    let mut rep = Report::default();
    let quiet = if a.trace {
        let quiet_cols = columns(
            if a.workload == Workload::OpenThreshold {
                12
            } else {
                40
            },
            2,
            "quiet",
        );
        Some(ladder::quiet_phase(
            &mut rep, a, &ctx, &d, &resident, &tracer, quiet_cols,
        )?)
    } else {
        None
    };
    let loaded = loaded_phase(a, &ctx, &d.front, &tracer)?;
    check_loaded(&mut rep, a, &ctx, &d, &loaded, &resident)?;
    end_to_end(&mut rep, a, &d, &loaded, &ctx, profile.dim);
    if let Some(quiet) = quiet {
        let probe_cols = columns(PROBE_WRITES, 4, "probe");
        ladder::traced_tail(
            &mut rep, a, &ctx, &d, &loaded, quiet, probe_cols, load_ms, &tracer,
        )?;
    }
    d.front.shutdown();
    Ok(rep)
}

/// Ingest latencies (from due time to APPLY return) and the live vector
/// count at the end of the run.
fn ingest_facts(log: &WriterLog, pool: &[EmbeddedColumn], emb: &Embedded) -> (Vec<f64>, usize) {
    let lat = log
        .writes
        .iter()
        .filter(|w| w.error.is_none())
        .map(|w| w.latency_ms())
        .collect();
    let mut live: HashMap<String, usize> = emb
        .columns
        .columns()
        .iter()
        .map(|c| (c.table_name.clone(), c.len as usize))
        .collect();
    for w in log.writes.iter().filter(|w| w.error.is_none()) {
        match &w.kind {
            load::WriteKind::Ingest { table, .. } => {
                live.insert(pool[*table].name.clone(), pool[*table].store.len());
            }
            load::WriteKind::Drop { names } => {
                for name in names {
                    live.remove(name);
                }
            }
        }
    }
    (lat, live.values().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_seconds_drop_the_stolen_half_but_keep_a_quiet_host_whole() {
        assert_eq!(
            calm_slots(&[0.0, 0.1, 0.01, 0.3]),
            vec![true, false, true, false]
        );
        assert_eq!(calm_slots(&[0.0, 0.015, 0.0]), vec![true, true, true]);
        assert_eq!(calm_slots(&[0.0, 0.03, 0.0]), vec![true, false, true]);
    }

    #[test]
    fn slot_steal_differences_counters_per_second() {
        let t0 = Instant::now();
        let at = |ms: u64, total: f64, steal: f64| (t0 + Duration::from_millis(ms), (total, steal));
        let ticks = [at(0, 0.0, 0.0), at(1000, 200.0, 0.0), at(2000, 400.0, 50.0)];
        assert_eq!(slot_steal(&ticks, t0, 2.0), vec![0.0, 0.25]);
    }
}
