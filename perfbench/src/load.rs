//! Load generation: closed-loop query clients and the open-loop writer.

use std::borrow::Cow;
use std::path::Path;
use std::time::{Duration, Instant};

use pexeso_core::config::ExecPolicy;
use pexeso_core::query::Query;
use pexeso_core::vector::VectorStore;
use pexeso_delta::IngestColumn;
use pexeso_serve::{ClientError, ServeClient};

use crate::deploy::{EmbeddedColumn, Res};
use crate::trace::Tracer;
use crate::util::{ms, Rng, Zipf};

/// A query pool: generated columns, each optionally also asked with one
/// of its values left out. Entry `i` is base column `i % base.len()`;
/// variant `i / base.len()` is the whole column (0) or the column without
/// value `variant - 1`. Variants give a large pool of distinct queries
/// for the price of embedding only the base columns.
pub struct Pool {
    pub base: Vec<EmbeddedColumn>,
    variants: usize,
}

impl Pool {
    pub fn new(base: Vec<EmbeddedColumn>, variants: usize) -> Self {
        Self { base, variants }
    }

    pub fn len(&self) -> usize {
        self.base.len() * (self.variants + 1)
    }

    pub fn get(&self, i: usize) -> Cow<'_, VectorStore> {
        let col = &self.base[i % self.base.len()].store;
        let variant = i / self.base.len();
        if variant == 0 || col.len() < 2 {
            return Cow::Borrowed(col);
        }
        let skip = (variant - 1) % col.len();
        let dim = col.dim();
        let mut data = col.raw_data().to_vec();
        data.drain(skip * dim..(skip + 1) * dim);
        Cow::Owned(VectorStore::from_raw(dim, data).expect("rows of a valid store"))
    }
}

/// When a load phase stops.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    /// After this many requests.
    After(usize),
}

/// How the client picks its next query from the pool.
pub enum Pick {
    /// Every query once, in pool order. Should the pool run out, the
    /// draws wrap round to its start: the run goes on and the repeats show
    /// in `load.repeat_frac` and on stderr.
    Unique,
    /// Zipf(s = 1) draws from a seeded stream.
    Zipf(Zipf, u64),
}

/// One answered (or failed) query.
#[derive(Debug, Clone)]
pub struct Sample {
    pub qi: usize,
    /// Seconds since the run origin when sent and when answered.
    pub sent: f64,
    pub recv: f64,
    pub latency_ms: f64,
    /// `(external id, match count)` per hit, in reply order.
    pub hits: Result<Vec<(u64, u32)>, String>,
    pub exact: bool,
    pub refused: bool,
    pub traced: bool,
}

impl Sample {
    pub fn good(&self) -> bool {
        self.hits.is_ok() && self.exact
    }
}

/// Run one closed-loop client against `addr` until `stop`. With the
/// tracer on, every other request is traced (a span per request and a
/// request id on the wire) so traced and untraced requests share the same
/// conditions and their difference is the tracing overhead.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: &str,
    origin: Instant,
    query: &Query,
    pool: &Pool,
    pick: &Pick,
    tracer: &Tracer,
    span_name: &'static str,
    stop: Stop,
) -> Res<Vec<Sample>> {
    let client =
        ServeClient::connect_with_capacity(addr, 1).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng = Rng::new(match pick {
        Pick::Zipf(_, seed) => *seed,
        Pick::Unique => 0,
    });
    let mut samples = Vec::new();
    for n in 0usize.. {
        let more = match stop {
            Stop::At(t) => Instant::now() < t,
            Stop::After(limit) => n < limit,
        };
        if !more {
            break;
        }
        let qi = match pick {
            Pick::Unique => {
                if n == pool.len() {
                    eprintln!(
                        "warning: all {} unique queries asked; later queries repeat earlier ones",
                        pool.len()
                    );
                }
                n % pool.len()
            }
            Pick::Zipf(z, _) => z.sample(&mut rng),
        };
        let traced = tracer.enabled() && n.is_multiple_of(2);
        let rid = if traced { tracer.mint() } else { 0 };
        let q = if traced {
            query.clone().with_request_id(rid)
        } else {
            query.clone()
        };
        let store = pool.get(qi);
        let sent = Instant::now();
        let res = if traced {
            tracer.span(span_name, rid, None, |_| {
                client.execute_detailed(&q, &store)
            })
        } else {
            client.execute_detailed(&q, &store)
        };
        let recv = Instant::now();
        let refused = matches!(res, Err(ClientError::Busy | ClientError::Shed));
        let (hits, exact) = match res {
            Ok((resp, _)) => (
                Ok(resp
                    .hits
                    .iter()
                    .map(|h| (h.external_id, h.match_count))
                    .collect()),
                resp.exact(),
            ),
            Err(e) => (Err(e.to_string()), false),
        };
        samples.push(Sample {
            qi,
            sent: (sent - origin).as_secs_f64(),
            recv: (recv - origin).as_secs_f64(),
            latency_ms: ms(recv - sent),
            hits,
            exact,
            refused,
            traced,
        });
    }
    Ok(samples)
}

/// What one scheduled write did.
#[derive(Debug, Clone)]
pub enum WriteKind {
    /// Ingest of pool table `table`, assigned `external_id`.
    Ingest { table: usize, external_id: u64 },
    /// Tombstones of the named tables.
    Drop { names: Vec<String> },
}

#[derive(Debug, Clone)]
pub struct WriteEvent {
    pub kind: WriteKind,
    /// Seconds since the origin: when it was due, when the writer started
    /// it, and when its APPLY returned.
    pub due: f64,
    pub start: f64,
    pub applied: f64,
    pub append_ms: f64,
    pub apply_ms: f64,
    /// Log records after this write.
    pub log_records: usize,
    pub error: Option<String>,
}

impl WriteEvent {
    /// Latency from the due time until APPLY returned.
    pub fn latency_ms(&self) -> f64 {
        (self.applied - self.due) * 1e3
    }
}

#[derive(Debug, Clone)]
pub struct CompactEvent {
    pub compact_s: f64,
    pub reload_ms: f64,
    pub wal_bytes: u64,
    pub wal_vector_bytes: u64,
    pub error: Option<String>,
}

/// The writer's full record of a run.
#[derive(Debug, Default)]
pub struct WriterLog {
    pub writes: Vec<WriteEvent>,
    pub compactions: Vec<CompactEvent>,
    /// How far behind schedule the writer started its last write (s).
    pub max_lag_s: f64,
}

/// Write settings for the open-loop writer.
pub struct WriterPlan<'a> {
    pub dir: &'a Path,
    pub addr: &'a str,
    pub interval: Duration,
    pub compact_every: usize,
    pub drop_every: usize,
    /// Live ingested tables a drop leaves at most.
    pub keep_ingested: usize,
    pub pool: &'a [EmbeddedColumn],
    /// Base table names a drop may pick from.
    pub base_names: &'a [String],
    pub seed: u64,
}

/// Bytes of the delta log and the raw f32 bytes of the vectors it holds.
fn wal_sizes(dir: &Path, records: &[usize], pool: &[EmbeddedColumn]) -> (u64, u64) {
    let wal = std::fs::metadata(pexeso_delta::delta_log_path(dir)).map_or(0, |m| m.len());
    let raw = records
        .iter()
        .map(|&t| pool[t].store.raw_data().len() as u64 * 4)
        .sum();
    (wal, raw)
}

/// Run the open-loop writer until `until`: write `i` is due at
/// `start + i * interval`; every `drop_every`-th write drops as many
/// tables as the writes since the last drop ingested, the rest ingest the
/// next pool table, each followed by APPLY. A drop takes the oldest
/// ingested tables beyond `keep_ingested` first and random base tables
/// for the rest, so the lake keeps its size and, once `keep_ingested`
/// tables are live, its base: the queries cost the same at the end of a
/// run as at its start. After every `compact_every` log records the
/// writer compacts and APPLYs (a full reload).
pub fn writer(
    plan: &WriterPlan,
    start: Instant,
    until: Instant,
    origin: Instant,
    tracer: &Tracer,
) -> WriterLog {
    let secs = |t: Instant| (t - origin).as_secs_f64();
    let mut log = WriterLog::default();
    let client = match ServeClient::connect_with_capacity(plan.addr, 1) {
        Ok(c) => c,
        Err(e) => {
            log.writes.push(WriteEvent {
                kind: WriteKind::Drop { names: Vec::new() },
                due: secs(start),
                start: secs(start),
                applied: secs(start),
                append_ms: 0.0,
                apply_ms: 0.0,
                log_records: 0,
                error: Some(format!("writer connect: {e}")),
            });
            return log;
        }
    };
    let mut rng = Rng::new(plan.seed ^ 0xd509);
    let mut live_ingested: Vec<(usize, String)> = Vec::new();
    let mut live_base: Vec<String> = plan.base_names.to_vec();
    let mut next_table = 0usize;
    let mut records = 0usize;
    // Pool tables whose vectors sit in the current log (for the WAL ratio).
    let mut in_log: Vec<usize> = Vec::new();
    for i in 0.. {
        let due = start + plan.interval * i as u32;
        if due >= until {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        log.max_lag_s = log.max_lag_s.max((began - due).as_secs_f64());
        let rid = tracer.mint();
        let is_drop = (i + 1) % plan.drop_every == 0;
        let mut event = tracer.span("delta.write", rid, None, |parent| {
            let (kind, appended) = tracer.span("delta.append", rid, Some(parent), |_| {
                if is_drop {
                    let mut names = Vec::new();
                    for _ in 1..plan.drop_every {
                        let name = if live_ingested.len() > plan.keep_ingested {
                            live_ingested.remove(0).1
                        } else if !live_base.is_empty() {
                            live_base.swap_remove(rng.below(live_base.len()))
                        } else if !live_ingested.is_empty() {
                            live_ingested.remove(0).1
                        } else {
                            break;
                        };
                        names.push(name);
                    }
                    let r = pexeso_delta::drop_tables(plan.dir, &names);
                    (WriteKind::Drop { names }, r.map(|n| records + n))
                } else {
                    let t = next_table;
                    next_table += 1;
                    let col = &plan.pool[t % plan.pool.len()];
                    let r = pexeso_delta::ingest_columns(
                        plan.dir,
                        &[IngestColumn {
                            table_name: col.name.clone(),
                            column_name: "name".into(),
                            vectors: col.store.raw_data().to_vec(),
                        }],
                    );
                    match r {
                        Ok(rep) => {
                            live_ingested.push((t, col.name.clone()));
                            in_log.push(t);
                            (
                                WriteKind::Ingest {
                                    table: t,
                                    external_id: rep.first_external_id,
                                },
                                Ok(rep.log_records),
                            )
                        }
                        Err(e) => (
                            WriteKind::Ingest {
                                table: t,
                                external_id: u64::MAX,
                            },
                            Err(e),
                        ),
                    }
                }
            });
            let after_append = Instant::now();
            let applied = tracer.span("delta.apply", rid, Some(parent), |_| client.apply_delta());
            let done = Instant::now();
            let error = match (&appended, &applied) {
                (Err(e), _) => Some(format!("append: {e}")),
                (_, Err(e)) => Some(format!("apply: {e}")),
                _ => None,
            };
            WriteEvent {
                kind,
                due: secs(due),
                start: secs(began),
                applied: secs(done),
                append_ms: ms(after_append - began),
                apply_ms: ms(done - after_append),
                log_records: appended.unwrap_or(0),
                error,
            }
        });
        records = event.log_records.max(records + 1);
        event.log_records = records;
        log.writes.push(event);
        if records >= plan.compact_every {
            let (wal_bytes, wal_vector_bytes) = wal_sizes(plan.dir, &in_log, plan.pool);
            let c0 = Instant::now();
            let compacted = tracer.span("delta.compact", rid, None, |_| {
                pexeso_delta::compact_lake(plan.dir, None, ExecPolicy::Sequential)
            });
            let c1 = Instant::now();
            let reloaded = tracer.span("delta.reload", rid, None, |_| client.apply_delta());
            let c2 = Instant::now();
            let error = match (&compacted, &reloaded) {
                (Err(e), _) => Some(format!("compact: {e}")),
                (_, Err(e)) => Some(format!("reload: {e}")),
                _ => None,
            };
            log.compactions.push(CompactEvent {
                compact_s: (c1 - c0).as_secs_f64(),
                reload_ms: ms(c2 - c1),
                wal_bytes,
                wal_vector_bytes,
                error,
            });
            records = 0;
            in_log.clear();
        }
    }
    log
}
