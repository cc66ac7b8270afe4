//! The planned partition fan-out, end to end. `Query`'s default outer
//! policy lets the executor spread one query's resident partitions over
//! the cores once the query × lake vector pairs clear the work floor.
//! On a workload above that floor every backend — in-memory index, disk
//! lake, resident partitions, delta lake, resident delta snapshot,
//! shard daemon and router — must answer the default policy with the
//! hits and `SearchStats` counters of `ExecPolicy::Sequential`.
//!
//! Also pinned here: a traced fan-out's phase spans fit inside the
//! root span, and a NaN or infinite query vector is a typed error on
//! every backend, in process and over the wire.

use std::path::{Path, PathBuf};

use pexeso::prelude::*;
use pexeso::serve::{ServeClient, ServeConfig, Server, ServerHandle, Snapshot};
use pexeso_core::exec::{self, UnitWork};
use pexeso_delta::{drop_tables, ingest_columns, DeltaLake, IngestColumn};
use pexeso_router::router::{Router, RouterConfig};
use pexeso_router::shardmap::{ShardMap, ShardSpec};
use pexeso_router::split::{shard_dir_name, split_lake};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 12;
const COLUMN_LEN: usize = 40;
const QUERY_VECTORS: usize = 128;
const PARTITIONS: usize = 4;

fn unit(rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

/// A lake of `n_cols` columns whose first three hold exact copies of
/// the first `COLUMN_LEN` query vectors (joinable at any τ).
fn workload(seed: u64, n_cols: usize) -> (ColumnSet, VectorStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let query_vecs: Vec<Vec<f32>> = (0..QUERY_VECTORS).map(|_| unit(&mut rng)).collect();
    let mut columns = ColumnSet::new(DIM);
    for c in 0..n_cols {
        let mut vecs: Vec<Vec<f32>> = (0..COLUMN_LEN).map(|_| unit(&mut rng)).collect();
        if c < 3 {
            for (slot, q) in vecs.iter_mut().zip(&query_vecs) {
                slot.clone_from(q);
            }
        }
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column(&format!("tab{c}"), "key", c as u64, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(DIM);
    for q in &query_vecs {
        query.push(q).unwrap();
    }
    (columns, query)
}

/// Enough columns that one query gives every thread the resident plan
/// may use here, min(cores, `PARTITIONS`), a floor's worth of pairs with
/// a margin, on whatever spawn cost this machine calibrated: the plan is
/// then bounded by the cores and partitions alone.
fn columns_above_floor() -> usize {
    let threads = exec::hardware_threads().clamp(2, PARTITIONS) as u64;
    let pairs = exec::fanout_floor_pairs() * threads * 5 / 4;
    (pairs as usize).div_ceil(QUERY_VECTORS * COLUMN_LEN)
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pexeso_fanout_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn index_options() -> IndexOptions {
    IndexOptions {
        num_pivots: 3,
        levels: Some(3),
        pivot_selection: PivotSelection::Pca,
        seed: 7,
        ..Default::default()
    }
}

/// Persist a `PARTITIONS`-way deployment of `columns` with its manifest.
fn deploy(dir: &Path, columns: &ColumnSet) -> PartitionedLake {
    let lake = PartitionedLake::build(
        columns,
        Euclidean,
        &PartitionConfig {
            k: PARTITIONS,
            method: PartitionMethod::JsdKmeans,
            ..Default::default()
        },
        &index_options(),
        dir,
    )
    .unwrap();
    LakeManifest::next_build(dir, "test", DIM)
        .unwrap()
        .write(dir)
        .unwrap();
    lake
}

/// A response's counters with the wall-clock timings zeroed.
fn counters(stats: &SearchStats) -> SearchStats {
    SearchStats {
        mapping_time: Default::default(),
        block_time: Default::default(),
        verify_time: Default::default(),
        total_time: Default::default(),
        ..stats.clone()
    }
}

/// Split `src` into two shard daemons and route over them.
fn start_router(src: &Path, out: &Path) -> (Vec<ServerHandle>, Router) {
    let map = split_lake(src, 2, out).unwrap();
    let mut daemons = Vec::new();
    let mut specs = Vec::new();
    for (i, spec) in map.shards().iter().enumerate() {
        let handle = Server::start(
            &out.join(shard_dir_name(i)),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .unwrap();
        specs.push(ShardSpec {
            lo: spec.lo,
            hi: spec.hi,
            replicas: vec![handle.addr().to_string()],
        });
        daemons.push(handle);
    }
    let router = Router::new(ShardMap::new(specs).unwrap(), RouterConfig::default()).unwrap();
    (daemons, router)
}

fn stop(handle: ServerHandle) {
    let _ = ServeClient::connect(handle.addr()).unwrap().shutdown();
    handle.join();
}

/// Append a small delta to the deployment in `dir`: two new tables and
/// one tombstoned base table, so the overlay fans out one extra unit and
/// filters the base.
fn add_delta(dir: &Path) {
    let mut rng = StdRng::seed_from_u64(99);
    let cols: Vec<IngestColumn> = (0..2)
        .map(|i| IngestColumn {
            table_name: format!("delta{i}"),
            column_name: "key".into(),
            vectors: (0..COLUMN_LEN).flat_map(|_| unit(&mut rng)).collect(),
        })
        .collect();
    ingest_columns(dir, &cols).unwrap();
    drop_tables(dir, &["tab1".into()]).unwrap();
}

#[test]
fn default_policy_matches_sequential_on_every_backend() {
    let (columns, query) = workload(11, columns_above_floor());
    let lake_vectors = columns.store().len();
    // The workload clears a floor per usable thread: the resident plan
    // fans out on every core, up to one per partition.
    let work = UnitWork::resident(query.len(), lake_vectors);
    assert_eq!(
        exec::plan_units(ExecPolicy::auto(), PARTITIONS, work),
        exec::hardware_threads().min(PARTITIONS)
    );

    let base_dir = tempdir("diff_base");
    let lake = deploy(&base_dir, &columns);
    assert_eq!(lake.num_partitions(), PARTITIONS);
    let shard_dir = tempdir("diff_shards");
    let (shards, router) = start_router(&base_dir, &shard_dir);
    let index = PexesoIndex::build(columns.clone(), Euclidean, index_options()).unwrap();
    let resident = ResidentPartitions::load(&lake, Euclidean).unwrap();

    let delta_dir = tempdir("diff_delta");
    deploy(&delta_dir, &columns);
    add_delta(&delta_dir);
    let delta_lake = DeltaLake::open(&delta_dir).unwrap();
    let snapshot = Snapshot::load(&delta_dir, 1).unwrap();
    let daemon = Server::start(&delta_dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(daemon.addr()).unwrap();

    let local: [(&str, &dyn Queryable); 5] = [
        ("index", &index),
        ("lake", &lake),
        ("resident", &resident),
        ("delta lake", &delta_lake),
        ("snapshot", &snapshot),
    ];
    let remote: [(&str, &dyn Queryable); 2] = [("daemon", &client), ("router", &router)];
    let queries = [
        Query::threshold(Tau::Ratio(0.1), JoinThreshold::Ratio(0.2)),
        Query::topk(Tau::Ratio(0.1), 5),
    ];
    for q in &queries {
        assert_eq!(q.policy, ExecPolicy::auto());
        let seq = q.clone().with_policy(ExecPolicy::Sequential);
        for (name, backend) in local {
            let planned = backend.execute(q, &query).unwrap();
            let pinned = backend.execute(&seq, &query).unwrap();
            assert!(
                !pinned.hits.is_empty(),
                "{name}: workload must produce hits"
            );
            assert_eq!(planned.hits, pinned.hits, "{name} hits for {q:?}");
            assert_eq!(planned.outcome, pinned.outcome, "{name} outcome");
            assert_eq!(
                counters(&planned.stats),
                counters(&pinned.stats),
                "{name} counters for {q:?}"
            );
        }
        // A batch of whole query columns against the index plans its
        // fan-out under the same floor.
        let batch = [&query, &query];
        let planned = index.execute_many(q, &batch).unwrap();
        let pinned = index.execute_many(&seq, &batch).unwrap();
        for (p, s) in planned.iter().zip(&pinned) {
            assert_eq!(p.hits, s.hits, "index batch hits for {q:?}");
            assert_eq!(
                counters(&p.stats),
                counters(&s.stats),
                "index batch counters"
            );
        }
        // Over the wire the counters travel in the explain funnel; an
        // explained request also bypasses the result cache, so both
        // policies really execute.
        for (name, backend) in remote {
            let planned = backend
                .execute(&q.clone().with_explain(true), &query)
                .unwrap();
            let pinned = backend
                .execute(&seq.clone().with_explain(true), &query)
                .unwrap();
            assert!(
                !pinned.hits.is_empty(),
                "{name}: workload must produce hits"
            );
            assert_eq!(planned.hits, pinned.hits, "{name} hits for {q:?}");
            assert_eq!(
                planned.stats.distance_computations, pinned.stats.distance_computations,
                "{name} distance computations for {q:?}"
            );
            assert_eq!(planned.explain, pinned.explain, "{name} funnel for {q:?}");
        }
    }

    let _ = client.shutdown();
    daemon.join();
    drop(router);
    shards.into_iter().for_each(stop);
    for dir in [base_dir, shard_dir, delta_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Under `Fixed { threads: 4 }` the four partitions overlap in wall
/// clock. The root's phase spans are scaled to the fan-out's wall time,
/// so they still fit inside the root; per-partition spans carry their
/// real start offsets inside it; the stats keep the busy sums.
#[test]
fn traced_fanout_phases_fit_inside_the_root() {
    let (columns, query) = workload(23, columns_above_floor());
    let dir = tempdir("trace");
    let lake = deploy(&dir, &columns);
    let resident = ResidentPartitions::load(&lake, Euclidean).unwrap();
    let backends: [(&str, &dyn Queryable); 2] = [("lake", &lake), ("resident", &resident)];
    let q = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Ratio(0.2))
        .with_policy(ExecPolicy::Fixed { threads: 4 })
        .with_trace(TraceLevel::Detail);
    for (name, backend) in backends {
        let resp = backend.execute(&q, &query).unwrap();
        let trace = resp.trace.as_ref().expect("requested trace must arrive");
        let root = &trace.root;
        assert!(
            trace.phase_sum() <= root.duration(),
            "{name}: phase sum {:?} exceeds root {:?}",
            trace.phase_sum(),
            root.duration()
        );
        let units: Vec<_> = root
            .children
            .iter()
            .filter(|s| s.name.starts_with("partition/"))
            .collect();
        assert_eq!(units.len(), PARTITIONS, "{name}: one span per partition");
        for s in units {
            assert!(
                s.start_us + s.duration_us <= root.duration_us,
                "{name}: {} runs past the root",
                s.name
            );
        }
        for (phase, busy) in [
            ("map", resp.stats.mapping_time),
            ("block", resp.stats.block_time),
            ("verify", resp.stats.verify_time),
        ] {
            assert!(
                trace.find(phase).unwrap().duration() <= busy,
                "{name}: {phase} span above the busy time"
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A NaN or infinite query vector has no meaningful distance to
/// anything: every backend refuses it with a typed error instead of
/// silently answering (NaN) or blaming normalisation (∞).
#[test]
fn non_finite_query_vectors_are_typed_errors() {
    let (columns, query) = workload(5, 12);
    let dir = tempdir("nonfinite");
    let lake = deploy(&dir, &columns);
    let shard_dir = tempdir("nonfinite_shards");
    let (shards, router) = start_router(&dir, &shard_dir);
    add_delta(&dir);
    let index = PexesoIndex::build(columns.clone(), Euclidean, index_options()).unwrap();
    let resident = ResidentPartitions::load(&lake, Euclidean).unwrap();
    let delta_lake = DeltaLake::open(&dir).unwrap();
    let snapshot = Snapshot::load(&dir, 1).unwrap();
    let daemon = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(daemon.addr()).unwrap();

    let local: [(&str, &dyn Queryable); 5] = [
        ("index", &index),
        ("lake", &lake),
        ("resident", &resident),
        ("delta lake", &delta_lake),
        ("snapshot", &snapshot),
    ];
    let remote: [(&str, &dyn Queryable); 2] = [("daemon", &client), ("router", &router)];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut raw = query.raw_data().to_vec();
        raw[2 * DIM + 5] = bad;
        let poisoned = VectorStore::from_raw(DIM, raw).unwrap();
        for q in [
            Query::threshold(Tau::Ratio(0.1), JoinThreshold::Ratio(0.2)),
            Query::topk(Tau::Ratio(0.1), 5),
        ] {
            for (name, backend) in local {
                let err = backend.execute(&q, &poisoned).unwrap_err();
                assert!(
                    matches!(err, PexesoError::NonFiniteQuery { row: 2 }),
                    "{name} answered {bad} with {err}"
                );
                let many = backend.execute_many(&q, &[&query, &poisoned]).unwrap_err();
                assert!(
                    matches!(many, PexesoError::NonFiniteQuery { row: 2 }),
                    "{name} batch answered {bad} with {many}"
                );
            }
            for (name, backend) in remote {
                let err = backend.execute(&q, &poisoned).unwrap_err().to_string();
                assert!(
                    err.contains("non-finite query vector: row 2"),
                    "{name} answered {bad} with {err}"
                );
            }
        }
    }
    // The daemon keeps serving after refusing.
    assert!(!client
        .execute(&Query::topk(Tau::Ratio(0.1), 5), &query)
        .unwrap()
        .hits
        .is_empty());

    let _ = client.shutdown();
    daemon.join();
    drop(router);
    shards.into_iter().for_each(stop);
    for dir in [dir, shard_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
