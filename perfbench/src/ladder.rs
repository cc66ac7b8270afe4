//! The traced run's layer ladder: a quiet phase that times the same
//! sampled queries through every layer (in-process `PexesoIndex`,
//! resident partitions, the daemon, each shard directly, the router), a
//! write-path probe on the delta layer, and the per-layer metrics.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use pexeso_core::config::{ExecPolicy, IndexOptions};
use pexeso_core::metric::Euclidean;
use pexeso_core::outofcore::ResidentPartitions;
use pexeso_core::query::{Query, QueryMode, QueryResponse, Queryable};
use pexeso_core::search::PexesoIndex;
use pexeso_core::stats::SearchStats;
use pexeso_core::trace::TraceLevel;
use pexeso_delta::{DeltaLake, IngestColumn};
use pexeso_serve::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
};
use pexeso_serve::wire_request;

use crate::bench::{
    spawn_single, stats_sum, Args, Deployed, Front, Loaded, Report, RunCtx, Workload, DROP_EVERY,
    QUERY_REQUESTS,
};
use crate::check::{self, hits_of, same_answer};
use crate::deploy::{start_routed, Daemon, Embedded, EmbeddedColumn, Res, Routed};
use crate::load::{self, Sample, WriterLog};
use crate::trace::{self, Tracer};
use crate::util::{median, ms, Json, Rng};

/// Per-query measurements of the quiet ladder.
#[derive(Debug, Default, Clone)]
struct Rung {
    core_ms: f64,
    core: SearchStats,
    query_vectors: usize,
    topk_pruned: u64,
    part_ms: f64,
    part: SearchStats,
    serve_ms: f64,
    codec_us: f64,
    request_bytes: usize,
    reply_bytes: usize,
    shard_ms: Vec<f64>,
    router_ms: f64,
}

/// Everything the traced quiet phase needs.
struct Ladder<'a> {
    tracer: &'a Tracer,
    query: &'a Query,
    embedded: &'a Embedded,
    index: &'a PexesoIndex<Euclidean>,
    resident: &'a ResidentPartitions<Euclidean>,
    single: &'a Daemon,
    routed: &'a Routed,
}

impl Ladder<'_> {
    /// Time one query through every layer in turn: in-process index,
    /// resident partitions, the daemon, each shard directly, the router.
    /// Returns the rung and the number of served replies that differ
    /// from the resident answer.
    fn rung(&self, col: &EmbeddedColumn) -> Res<(Rung, usize)> {
        let t = self.tracer;
        let rid = t.mint();
        let q = self.query.clone().with_request_id(rid);
        let e = |r: pexeso_core::error::Result<QueryResponse>| r.map_err(|e| e.to_string());
        t.span("load.quiet", rid, None, |root| {
            let mut rung = Rung::default();
            let store = t.span("embed.query", rid, Some(root), |_| {
                pexeso::pipeline::embed_query(&self.embedded.embedder, &col.values)
            });
            let store = store.store();
            rung.query_vectors = store.len();

            let t0 = Instant::now();
            let core = e(t.span("core.index", rid, Some(root), |_| {
                self.index.execute(&q, store)
            }))?;
            rung.core_ms = ms(t0.elapsed());
            rung.core = core.stats.clone();
            rung.topk_pruned = match q.mode {
                QueryMode::Topk(_) => core.stats.topk_pruned,
                QueryMode::Threshold(_) => {
                    let topk = Query::topk(q.tau, 10);
                    e(self.index.execute(&topk, store))?.stats.topk_pruned
                }
            };

            let t0 = Instant::now();
            let part = e(t.span("partitions.exec", rid, Some(root), |_| {
                self.resident.execute(&q, store)
            }))?;
            rung.part_ms = ms(t0.elapsed());
            rung.part = part.stats.clone();
            let want = hits_of(&part);
            let agrees = |got: Option<check::Hits>| {
                got.is_some_and(|g| same_answer(&q, store.len(), &g, &want))
            };
            let mut wrong = usize::from(!agrees(Some(hits_of(&core))));

            // The served calls ask for the daemon's phase trace, which is
            // grafted under the call's span for the layers' self times.
            let traced = q.clone().with_trace(TraceLevel::Phases);
            let client = self.single.client()?;
            let t0 = Instant::now();
            let (call, served) = t.span("serve.exec", rid, Some(root), |id| {
                (id, client.execute_detailed(&traced, store))
            });
            rung.serve_ms = ms(t0.elapsed());
            if let Some(tr) = served.as_ref().ok().and_then(|(r, _)| r.trace.as_ref()) {
                t.graft(call, rid, &tr.root);
            }
            wrong += usize::from(!agrees(served.map(|(r, _)| hits_of(&r)).ok()));
            let (codec_us, req_b, rep_b) = t.span("serve.codec", rid, Some(root), |_| {
                codec(&self.single.addr, &q, store)
            })?;
            rung.codec_us = codec_us;
            rung.request_bytes = req_b;
            rung.reply_bytes = rep_b;

            // Direct shard legs carry a metric expectation so their cache
            // lines differ from the router's forwarded requests.
            let direct = q.clone().expect_metric("euclidean");
            for shard in &self.routed.shards {
                let c = shard.client()?;
                let t0 = Instant::now();
                t.span("shard.direct", rid, Some(root), |_| {
                    c.execute_detailed(&direct, store)
                })
                .map_err(|e| e.to_string())?;
                rung.shard_ms.push(ms(t0.elapsed()));
            }
            let rc = self.routed.router.client()?;
            let t0 = Instant::now();
            let (call, routed) = t.span("router.exec", rid, Some(root), |id| {
                (id, rc.execute_detailed(&traced, store))
            });
            rung.router_ms = ms(t0.elapsed());
            if let Some(tr) = routed.as_ref().ok().and_then(|(r, _)| r.trace.as_ref()) {
                t.graft(call, rid, &tr.root);
            }
            wrong += usize::from(!agrees(routed.map(|(r, _)| hits_of(&r)).ok()));
            Ok((rung, wrong))
        })
    }
}

/// Frame sizes of one query and the time the four codec calls take on
/// them in-process (client encode, server decode, server encode, client
/// decode). The reply frame is fetched raw from the daemon.
fn codec(
    addr: &str,
    q: &Query,
    store: &pexeso_core::vector::VectorStore,
) -> Res<(f64, usize, usize)> {
    let req = wire_request(q, store);
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    write_frame(&mut stream, &encode_request(&req)).map_err(|e| e.to_string())?;
    let reply_bytes = read_frame(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or("daemon hung up")?;
    let reply = decode_reply(&reply_bytes).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    let mut req_len = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let bytes = std::hint::black_box(encode_request(&req));
        let decoded = decode_request(&bytes).map_err(|e| e.to_string())?;
        let encoded = std::hint::black_box(encode_reply(&reply));
        let back = decode_reply(&reply_bytes).map_err(|e| e.to_string())?;
        std::hint::black_box((decoded, encoded, back));
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        req_len = bytes.len();
    }
    Ok((median(&times), req_len, reply_bytes.len()))
}

/// What the quiet phase measured, and the daemons it started beside the
/// workload's own front end (stopped by [`traced_tail`]).
pub struct Quiet {
    rungs: Vec<Rung>,
    cols: Vec<EmbeddedColumn>,
    /// Shard requests the router sent per routed quiet query.
    shard_requests_per_query: f64,
    extra_single: Option<Daemon>,
    extra_routed: Option<Routed>,
}

/// The traced quiet phase: one client, the sampled queries `cols` through
/// every layer in turn. Runs before the loaded phase, on queries the load
/// never asks, so no layer answers them from a cache.
pub fn quiet_phase(
    rep: &mut Report,
    a: &Args,
    ctx: &RunCtx,
    d: &Deployed,
    resident: &ResidentPartitions<Euclidean>,
    tracer: &Tracer,
    cols: Vec<EmbeddedColumn>,
) -> Res<Quiet> {
    let (mut extra_single, mut extra_routed) = (None, None);
    let (single, routed): (&Daemon, &Routed) = match &d.front {
        Front::Single(s) => (
            s,
            &*extra_routed.insert(start_routed(&a.bin, &ctx.dirs.unsplit, &ctx.dirs.shards)?),
        ),
        Front::Routed(r) => (
            &*extra_single.insert(spawn_single(&a.bin, &ctx.dirs.unsplit)?),
            r,
        ),
    };
    let index = PexesoIndex::build(d.emb.columns.clone(), Euclidean, IndexOptions::default())
        .map_err(|e| e.to_string())?;
    let ladder = Ladder {
        tracer,
        query: &ctx.query,
        embedded: &d.emb,
        index: &index,
        resident,
        single,
        routed,
    };
    let shards: Vec<&Daemon> = routed.shards.iter().collect();
    let before = stats_sum(&shards, &QUERY_REQUESTS)?;
    let mut rungs = Vec::new();
    for col in &cols {
        let (rung, wrong) = ladder.rung(col)?;
        rep.attempted += 3;
        rep.failed += wrong as u64;
        rep.wrong += wrong as u64;
        rungs.push(rung);
    }
    let after = stats_sum(&shards, &QUERY_REQUESTS)?;
    // The direct legs asked each shard once per query; the rest came from
    // the router.
    let routed_requests =
        after.iter().sum::<f64>() - before.iter().sum::<f64>() - (cols.len() * shards.len()) as f64;
    Ok(Quiet {
        rungs,
        shard_requests_per_query: routed_requests / cols.len() as f64,
        cols,
        extra_single,
        extra_routed,
    })
}

/// After the loaded phase of a traced run: the delta probe, the
/// per-layer metrics, the span file, and stopping the quiet phase's
/// extra daemons.
#[allow(clippy::too_many_arguments)]
pub fn traced_tail(
    rep: &mut Report,
    a: &Args,
    ctx: &RunCtx,
    d: &Deployed,
    loaded: &Loaded,
    quiet: Quiet,
    probe_cols: Vec<EmbeddedColumn>,
    load_ms: f64,
    tracer: &Tracer,
) -> Res<()> {
    let single = match (&d.front, &quiet.extra_single) {
        (Front::Single(s), _) => s,
        (_, Some(s)) => s,
        _ => unreachable!("a traced run always has an unsplit daemon"),
    };
    let probe = delta_probe(
        &ctx.dirs.unsplit,
        single,
        &probe_cols,
        &ctx.base_names,
        &quiet.cols,
        &ctx.query,
        tracer,
        a.seed,
    )?;
    rep.attempted += probe.checked as u64;
    rep.failed += probe.wrong as u64;
    rep.wrong += probe.wrong as u64;
    let loaded_shard_requests = match a.workload {
        Workload::WdcRoutedTopk => loaded.executor_requests / loaded.samples.len().max(1) as f64,
        _ => quiet.shard_requests_per_query,
    };
    layer_metrics(
        rep,
        a.workload,
        &LayerInputs {
            rungs: &quiet.rungs,
            embed_us: &d.embed_us_per_value,
            build_s: &d.build_s,
            load_ms,
            lake_vectors: d.emb.columns.n_vectors(),
            lake_columns: d.emb.columns.n_columns(),
            samples: &loaded.samples,
            warmup: &loaded.warmup,
            cache: (loaded.cache_hits, loaded.cache_misses),
            shard_requests_per_query: loaded_shard_requests,
            writer: &loaded.writer,
            probe: &probe,
            spans: &tracer.spans(),
        },
    );
    let path = a
        .out
        .join(format!("{}-seed{}.spans.jsonl", a.workload.name(), a.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    rep.notes
        .push(("spans".into(), Json::str(path.to_string_lossy())));
    if let Some(s) = quiet.extra_single {
        s.shutdown();
    }
    if let Some(r) = quiet.extra_routed {
        r.shutdown();
    }
    Ok(())
}

/// What the delta probe measured.
#[derive(Debug, Default)]
struct Probe {
    append_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    compact_s: f64,
    reload_ms: f64,
    overlay_overhead_ms: f64,
    wal_ratio: f64,
    log_records_max: usize,
    checked: usize,
    wrong: usize,
}

/// Traced write-path probe on the unsplit deployment and its daemon:
/// `PROBE_WRITES` writes (ingest one table, a drop every tenth) each
/// followed by APPLY; at that deepest log, `DeltaLake::execute` on the
/// quiet queries against the compacted base; then compaction and the
/// reloading APPLY, after which the daemon must answer like the base.
#[allow(clippy::too_many_arguments)]
fn delta_probe(
    dir: &Path,
    daemon: &Daemon,
    pool: &[EmbeddedColumn],
    base_names: &[String],
    quiet: &[EmbeddedColumn],
    query: &Query,
    t: &Tracer,
    seed: u64,
) -> Res<Probe> {
    let client = daemon.client()?;
    let mut p = Probe::default();
    let mut rng = Rng::new(seed ^ 0x9b0b);
    let mut raw_bytes = 0u64;
    let e = |r: pexeso_core::error::Result<QueryResponse>| r.map_err(|e| e.to_string());
    for (i, col) in pool.iter().enumerate() {
        let rid = t.mint();
        t.span("delta.write", rid, None, |root| {
            let t0 = Instant::now();
            t.span("delta.append", rid, Some(root), |_| {
                if (i + 1) % DROP_EVERY == 0 {
                    let name = &base_names[rng.below(base_names.len())];
                    pexeso_delta::drop_tables(dir, std::slice::from_ref(name)).map(|_| ())
                } else {
                    raw_bytes += col.store.raw_data().len() as u64 * 4;
                    pexeso_delta::ingest_columns(
                        dir,
                        &[IngestColumn {
                            table_name: col.name.clone(),
                            column_name: "name".into(),
                            vectors: col.store.raw_data().to_vec(),
                        }],
                    )
                    .map(|r| p.log_records_max = p.log_records_max.max(r.log_records))
                }
            })
            .map_err(|e| format!("probe write: {e}"))?;
            p.append_ms.push(ms(t0.elapsed()));
            let t0 = Instant::now();
            t.span("delta.apply", rid, Some(root), |_| client.apply_delta())
                .map_err(|e| format!("probe APPLY: {e}"))?;
            p.apply_ms.push(ms(t0.elapsed()));
            Ok::<_, String>(())
        })?;
    }
    let wal = std::fs::metadata(pexeso_delta::delta_log_path(dir)).map_or(0, |m| m.len());
    p.wal_ratio = wal as f64 / raw_bytes.max(1) as f64;
    let overlay = DeltaLake::open(dir).map_err(|e| e.to_string())?;
    let mut over = Vec::new();
    let mut answers = Vec::new();
    for col in quiet {
        let t0 = Instant::now();
        let r = e(t.span("delta.overlay", t.mint(), None, |_| {
            overlay.execute(query, &col.store)
        }))?;
        over.push(ms(t0.elapsed()));
        answers.push(hits_of(&r));
    }
    let t0 = Instant::now();
    t.span("delta.compact", t.mint(), None, |_| {
        pexeso_delta::compact_lake(dir, None, ExecPolicy::Sequential)
    })
    .map_err(|e| format!("probe compact: {e}"))?;
    p.compact_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    t.span("delta.reload", t.mint(), None, |_| client.apply_delta())
        .map_err(|e| format!("probe reload: {e}"))?;
    p.reload_ms = ms(t0.elapsed());
    let base = DeltaLake::open(dir).map_err(|e| e.to_string())?;
    let mut based = Vec::new();
    for (col, want) in quiet.iter().zip(&answers) {
        let t0 = Instant::now();
        let r = e(t.span("delta.base", t.mint(), None, |_| {
            base.execute(query, &col.store)
        }))?;
        based.push(ms(t0.elapsed()));
        let served = client
            .execute_detailed(query, &col.store)
            .map(|(r, _)| hits_of(&r));
        let n = col.store.len();
        p.checked += 2;
        p.wrong += usize::from(!same_answer(query, n, &hits_of(&r), want))
            + usize::from(!served.is_ok_and(|s| same_answer(query, n, &s, want)));
    }
    p.overlay_overhead_ms = median(&over) - median(&based);
    Ok(p)
}

struct LayerInputs<'a> {
    rungs: &'a [Rung],
    embed_us: &'a [f64],
    build_s: &'a [f64],
    load_ms: f64,
    lake_vectors: usize,
    lake_columns: usize,
    samples: &'a [Sample],
    /// The untimed requests before the window (earlier requests for
    /// `load.repeat_frac`).
    warmup: &'a [Sample],
    /// Result-cache hits and misses over the loaded phase.
    cache: (f64, f64),
    shard_requests_per_query: f64,
    writer: &'a WriterLog,
    probe: &'a Probe,
    spans: &'a [trace::Span],
}

fn layer_metrics(rep: &mut Report, w: Workload, i: &LayerInputs) {
    let n = i.rungs.len();
    let med = |f: &dyn Fn(&Rung) -> f64| median(&i.rungs.iter().map(f).collect::<Vec<_>>());
    rep.layer(
        "embed.us_per_value",
        median(i.embed_us),
        "us",
        i.embed_us.len(),
    );

    rep.layer("core.exec_ms", med(&|r| r.core_ms), "ms", n);
    rep.layer("core.map_ms", med(&|r| ms(r.core.mapping_time)), "ms", n);
    rep.layer("core.block_ms", med(&|r| ms(r.core.block_time)), "ms", n);
    rep.layer("core.verify_ms", med(&|r| ms(r.core.verify_time)), "ms", n);
    rep.layer(
        "core.distance_computations",
        med(&|r| r.core.distance_computations as f64),
        "count",
        n,
    );
    rep.layer(
        "core.candidate_pairs",
        med(&|r| r.core.candidate_pairs as f64),
        "count",
        n,
    );
    let lv = i.lake_vectors as f64;
    rep.layer(
        "core.prune_frac",
        med(&|r| 1.0 - r.core.distance_computations as f64 / (r.query_vectors as f64 * lv)),
        "ratio",
        n,
    );
    let cols = i.lake_columns as f64;
    rep.layer(
        "core.topk_pruned_frac",
        med(&|r| r.topk_pruned as f64 / cols),
        "ratio",
        n,
    );

    rep.layer("partitions.exec_ms", med(&|r| r.part_ms), "ms", n);
    rep.layer(
        "partitions.overhead_ms",
        med(&|r| r.part_ms - r.core_ms),
        "ms",
        n,
    );
    rep.layer(
        "partitions.distance_computations",
        med(&|r| r.part.distance_computations as f64),
        "count",
        n,
    );
    rep.layer(
        "partitions.build_s",
        median(i.build_s),
        "s",
        i.build_s.len(),
    );
    rep.layer("partitions.load_ms", i.load_ms, "ms", 1);

    rep.layer("serve.exec_ms", med(&|r| r.serve_ms), "ms", n);
    rep.layer("serve.wire_ms", med(&|r| r.serve_ms - r.part_ms), "ms", n);
    rep.layer("serve.codec_us", med(&|r| r.codec_us), "us", n);
    rep.layer(
        "serve.request_bytes",
        med(&|r| r.request_bytes as f64),
        "bytes",
        n,
    );
    rep.layer(
        "serve.reply_bytes",
        med(&|r| r.reply_bytes as f64),
        "bytes",
        n,
    );
    let (hits, misses) = i.cache;
    rep.layer(
        "serve.cache_hit_frac",
        hits / (hits + misses).max(1.0),
        "ratio",
        (hits + misses) as usize,
    );
    let loaded: Vec<f64> = i
        .samples
        .iter()
        .filter(|s| s.good())
        .map(|s| s.latency_ms)
        .collect();
    let quiet_front = match w {
        Workload::WdcRoutedTopk => med(&|r| r.router_ms),
        _ => med(&|r| r.serve_ms),
    };
    rep.layer(
        "serve.contention_ms",
        median(&loaded) - quiet_front,
        "ms",
        loaded.len(),
    );
    let refused = i.samples.iter().filter(|s| s.refused).count();
    rep.layer("serve.refused", refused as f64, "count", i.samples.len());

    rep.layer("router.exec_ms", med(&|r| r.router_ms), "ms", n);
    rep.layer(
        "router.overhead_ms",
        med(&|r| r.router_ms - r.shard_ms.iter().copied().fold(0.0, f64::max)),
        "ms",
        n,
    );
    rep.layer(
        "router.shard_requests_per_query",
        i.shard_requests_per_query,
        "count",
        n,
    );

    // The write path: the ingest workload's own writer, else the probe.
    let p = i.probe;
    let wl = i.writer;
    let good_writes: Vec<&load::WriteEvent> =
        wl.writes.iter().filter(|w| w.error.is_none()).collect();
    let good_compactions: Vec<&load::CompactEvent> = wl
        .compactions
        .iter()
        .filter(|c| c.error.is_none())
        .collect();
    if w == Workload::WdcIngest && !good_compactions.is_empty() {
        let ap: Vec<f64> = good_writes.iter().map(|w| w.append_ms).collect();
        let al: Vec<f64> = good_writes.iter().map(|w| w.apply_ms).collect();
        rep.layer("delta.append_ms", median(&ap), "ms", ap.len());
        rep.layer("delta.apply_ms", median(&al), "ms", al.len());
        let cs: Vec<f64> = good_compactions.iter().map(|c| c.compact_s).collect();
        let rl: Vec<f64> = good_compactions.iter().map(|c| c.reload_ms).collect();
        rep.layer("delta.compact_s", median(&cs), "s", cs.len());
        rep.layer("delta.reload_ms", median(&rl), "ms", rl.len());
        let wal: Vec<f64> = good_compactions
            .iter()
            .map(|c| c.wal_bytes as f64 / c.wal_vector_bytes.max(1) as f64)
            .collect();
        rep.layer(
            "delta.wal_bytes_per_vector_byte",
            median(&wal),
            "ratio",
            wal.len(),
        );
        let deepest = good_writes.iter().map(|w| w.log_records).max().unwrap_or(0);
        rep.layer(
            "delta.log_records_max",
            deepest as f64,
            "count",
            good_writes.len(),
        );
    } else {
        rep.layer(
            "delta.append_ms",
            median(&p.append_ms),
            "ms",
            p.append_ms.len(),
        );
        rep.layer(
            "delta.apply_ms",
            median(&p.apply_ms),
            "ms",
            p.apply_ms.len(),
        );
        rep.layer("delta.compact_s", p.compact_s, "s", 1);
        rep.layer("delta.reload_ms", p.reload_ms, "ms", 1);
        rep.layer("delta.wal_bytes_per_vector_byte", p.wal_ratio, "ratio", 1);
        rep.layer(
            "delta.log_records_max",
            p.log_records_max as f64,
            "count",
            p.append_ms.len(),
        );
    }
    rep.layer("delta.overlay_overhead_ms", p.overlay_overhead_ms, "ms", n);

    let mut seen: HashSet<usize> = i.warmup.iter().map(|s| s.qi).collect();
    let mut repeats = 0;
    for s in i.samples {
        if !seen.insert(s.qi) {
            repeats += 1;
        }
    }
    rep.layer(
        "load.repeat_frac",
        repeats as f64 / i.samples.len().max(1) as f64,
        "ratio",
        i.samples.len(),
    );

    // Self times inside the quiet phase's served requests, whose spans
    // nest the daemons' own traces: the single daemon's request for the
    // serve, partitions and core layers, the routed request for the
    // router. The delta layer's spans hold no other layer, so
    // `delta.append_ms` and `delta.apply_ms` are its self times.
    let served = trace::self_time_under_ms(i.spans, "serve.exec");
    let routed = trace::self_time_under_ms(i.spans, "router.exec");
    let embedded = trace::self_time_under_ms(i.spans, "embed.query");
    for (name, times, layer) in [
        ("self.embed_ms", &embedded, "embed"),
        ("self.core_ms", &served, "core"),
        ("self.partitions_ms", &served, "partitions"),
        ("self.serve_ms", &served, "serve"),
        ("self.router_ms", &routed, "router"),
    ] {
        let v = times.get(layer).copied().unwrap_or(f64::NAN);
        rep.layer(name, v, "ms", n);
    }
    let traced: Vec<f64> = i
        .samples
        .iter()
        .filter(|s| s.good() && s.traced)
        .map(|s| s.latency_ms)
        .collect();
    let untraced: Vec<f64> = i
        .samples
        .iter()
        .filter(|s| s.good() && !s.traced)
        .map(|s| s.latency_ms)
        .collect();
    rep.layer(
        "trace.overhead_ms",
        median(&traced) - median(&untraced),
        "ms",
        traced.len(),
    );
}
