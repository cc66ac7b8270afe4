//! The router daemon: the [`Router`] as a [`Handler`] on the
//! [`pexeso_serve::frame_server`], behind the same wire protocol the
//! shard daemons speak.
//!
//! A client cannot tell a router from a single `pexeso serve` daemon —
//! same frames, same verbs, same reply shapes — which is the point: the
//! existing [`pexeso_serve::ServeClient`] / `pexeso query` tooling works
//! against either, and promoting a deployment from one node to N shards
//! changes an address, not a client. The frame server under both is one
//! and the same: one acceptor feeding a bounded connection queue, a
//! fixed worker pool, explicit one-frame `BUSY` backpressure when the
//! queue is full, deadline expiry in the queue, and the shutdown drain.
//!
//! Differences from a shard daemon, all deliberate:
//!
//! * **No result cache.** Each shard daemon already memoises exact
//!   results keyed on its own snapshot generation; a router cache would
//!   duplicate those bytes and add a second invalidation domain that
//!   must observe N independent generation bumps. Routed cache hits
//!   still happen — inside the shards, where the generations live.
//! * **No soft-watermark shedding.** The router sheds load at its own
//!   door with `BUSY` instead of amplifying a spike N-fold onto the
//!   shards, which run their own soft-watermark shedding.
//! * **`RELOAD` re-reads the shard map**, not an index directory: the
//!   router serves topology, and a map edit (add a replica, move a
//!   boundary after a re-split) hot-swaps the routing table without
//!   dropping queries in flight (they finish on the old table).
//! * **`APPLY` requires the V5 shard tail** ([`Request::ApplyDelta`]
//!   with `shard: Some(_)`): a router fans ingest to the owning shard's
//!   replicas, and "apply... something, somewhere" is an error, not a
//!   guess.

use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use pexeso_core::error::Result;
use pexeso_core::log::{self as plog, LogLevel, Value};
use pexeso_core::vector::VectorStore;
use pexeso_serve::frame_server::{FrameConfig, FrameServer, Handler, RequestCtx};
use pexeso_serve::metrics::{write_histogram_series, EndpointMetrics, FrameMetrics, SlowQueryLog};
use pexeso_serve::protocol::{HitsReply, InfoReply, Reply, Request};
use pexeso_serve::server::{answer_queries, error_reply, verb_name};
use pexeso_serve::{query_from_wire, ResilientConfig};

use crate::router::{Router, RouterConfig};
use crate::shardmap::ShardMap;

/// Router daemon tuning. The subset of `ServeConfig` that applies to a
/// tier that holds no index: no cache knobs, no sampling (every routed
/// query already carries per-shard spans when traced).
#[derive(Debug, Clone)]
pub struct RouterServeConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections waiting for a worker before BUSY kicks in.
    pub queue_capacity: usize,
    /// Per-connection read timeout.
    pub read_timeout: Option<Duration>,
    /// Ceiling on the per-request `ExecPolicy` thread count forwarded to
    /// the shards.
    pub max_request_threads: usize,
    /// Write timeout for the one-frame BUSY rejection.
    pub reject_write_timeout: Duration,
    /// Slowest-N capacity of the traced-query log behind `SLOW`.
    pub slow_log_capacity: usize,
    /// Retry/failover tuning for the per-shard clients.
    pub client: ResilientConfig,
}

impl Default for RouterServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            read_timeout: Some(Duration::from_secs(30)),
            max_request_threads: 16,
            reject_write_timeout: Duration::from_millis(100),
            slow_log_capacity: 8,
            client: ResilientConfig::default(),
        }
    }
}

/// Router-tier request counters (the shard daemons keep their own).
#[derive(Default)]
struct RouterMetrics {
    search: EndpointMetrics,
    topk: EndpointMetrics,
    /// INFO/STATS/METRICS/SLOW/RELOAD.
    admin: EndpointMetrics,
    apply: EndpointMetrics,
    /// The frame server's rejection counters and queue-wait histogram.
    frame: FrameMetrics,
}

impl RouterMetrics {
    fn endpoints(&self) -> [(&'static str, &EndpointMetrics); 4] {
        [
            ("search", &self.search),
            ("topk", &self.topk),
            ("admin", &self.admin),
            ("apply", &self.apply),
        ]
    }
}

/// The router daemon entry point.
pub struct RouterServer;

impl RouterServer {
    /// Read the shard map at `map_path`, build the router, bind `addr`
    /// (port 0 for an ephemeral test port), and spawn the acceptor +
    /// worker threads.
    pub fn start(
        map_path: &Path,
        addr: impl ToSocketAddrs,
        config: RouterServeConfig,
    ) -> Result<RouterServerHandle> {
        let map = ShardMap::read(map_path)?;
        let router = Router::new(
            map,
            RouterConfig {
                client: config.client.clone(),
            },
        )?;
        let frame = FrameConfig {
            component: "router",
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            queue_soft_watermark: None,
            read_timeout: config.read_timeout,
            reject_write_timeout: config.reject_write_timeout,
        };
        let handler = RouterHandler {
            router: RwLock::new(Arc::new(router)),
            map_path: map_path.to_path_buf(),
            metrics: RouterMetrics::default(),
            slow_log: SlowQueryLog::new(config.slow_log_capacity),
            started: Instant::now(),
            config,
        };
        Ok(FrameServer::start(addr, frame, handler)?)
    }
}

/// A running router daemon.
pub type RouterServerHandle = FrameServer<RouterHandler>;

/// The router daemon's answers: the routing table, hot-swapped on
/// `RELOAD`, and the router-tier metrics.
pub struct RouterHandler {
    /// Hot-swapped on RELOAD; queries pin an `Arc` for their lifetime.
    router: RwLock<Arc<Router>>,
    map_path: PathBuf,
    config: RouterServeConfig,
    metrics: RouterMetrics,
    slow_log: SlowQueryLog,
    started: Instant,
}

impl RouterHandler {
    /// The currently-routing [`Router`]; one request pins it for its
    /// whole lifetime.
    pub fn router(&self) -> Arc<Router> {
        self.router.read().expect("router lock poisoned").clone()
    }

    /// Scatter one solo query request over the pinned routing table. The
    /// router does not know the deployment dimension (the shards do), so
    /// dimension mismatches surface as typed per-shard errors rather than
    /// a local precheck.
    fn run_query(
        &self,
        router: &Router,
        req: &Request,
        queue_wait: Option<Duration>,
    ) -> std::result::Result<HitsReply, String> {
        let (payload, mode) = req.query().expect("run_query only sees query verbs");
        let store = VectorStore::from_raw(payload.dim as usize, payload.vectors.clone())
            .map_err(|e| e.to_string())?;
        let query = query_from_wire(payload, mode, self.config.max_request_threads, queue_wait);
        let (resp, meta) = router
            .execute_routed(&query, &store)
            .map_err(|e| e.to_string())?;
        if payload.trace.enabled() {
            let rendered = resp.trace.as_ref().map(|t| t.render()).unwrap_or_default();
            self.slow_log.offer_correlated(
                verb_name(mode),
                resp.stats.total_time,
                rendered,
                meta.request_id,
                meta.slowest_shard,
            );
        }
        Ok(HitsReply::executed(
            router.generation(),
            resp,
            payload.ext.is_some(),
            payload.trace.enabled(),
        ))
    }
}

impl Handler for RouterHandler {
    fn frame_metrics(&self) -> &FrameMetrics {
        &self.metrics.frame
    }

    fn handle(&self, req: Request, ctx: &RequestCtx<'_>) -> Reply {
        let started = Instant::now();
        let metrics = &self.metrics;
        let (endpoint, reply) = match req {
            Request::Info => {
                let reply = match self.router().info() {
                    Ok(info) => Reply::Info(InfoReply {
                        dim: info.dim,
                        generation: info.generation,
                        index_version: info.index_version,
                        partitions: info.partitions,
                        disk_bytes: info.disk_bytes,
                    }),
                    Err(e) => error_reply(&metrics.admin, e.to_string()),
                };
                (&metrics.admin, reply)
            }
            Request::Stats => {
                let text = render_stats(self, &self.router());
                (&metrics.admin, Reply::Stats { text })
            }
            Request::Metrics => {
                let text = render_prometheus(self, &self.router());
                (&metrics.admin, Reply::Stats { text })
            }
            Request::SlowLog => {
                let text = self.slow_log.render();
                (&metrics.admin, Reply::Stats { text })
            }
            Request::Reload { dir } => {
                // Re-read the shard map (an explicit payload names an
                // alternative map file) and hot-swap the routing table.
                let path = dir
                    .map(PathBuf::from)
                    .unwrap_or_else(|| self.map_path.clone());
                let reply = match ShardMap::read(&path).and_then(|map| {
                    Router::new(
                        map,
                        RouterConfig {
                            client: self.config.client.clone(),
                        },
                    )
                }) {
                    Ok(fresh) => {
                        let shards = fresh.shard_count() as u32;
                        let generation = fresh.generation();
                        *self.router.write().expect("router lock poisoned") = Arc::new(fresh);
                        plog::log(
                            LogLevel::Info,
                            "router",
                            "map_reloaded",
                            &[
                                ("generation", Value::U64(generation)),
                                ("shards", Value::U64(shards as u64)),
                            ],
                        );
                        // `partitions` reports shard count at this tier:
                        // the router's units of spread are shards, not
                        // partition files it cannot see.
                        Reply::Reloaded {
                            generation,
                            partitions: shards,
                        }
                    }
                    // A failed reload keeps routing on the old table.
                    Err(e) => {
                        let message = e.to_string();
                        plog::log(
                            LogLevel::Error,
                            "router",
                            "map_reload_failed",
                            &[("error", Value::Str(&message))],
                        );
                        error_reply(&metrics.admin, message)
                    }
                };
                (&metrics.admin, reply)
            }
            Request::ApplyDelta { shard } => {
                let reply = match shard {
                    Some(s) => match self.router().apply_delta(s as usize) {
                        Ok((generation, delta_columns, tombstones)) => Reply::Applied {
                            generation,
                            delta_columns,
                            tombstones,
                        },
                        Err(e) => error_reply(&metrics.apply, e.to_string()),
                    },
                    // A bare V3 APPLY is addressed at "the deployment"; a
                    // router has N of them and refuses to pick one
                    // silently.
                    None => error_reply(
                        &metrics.apply,
                        "router APPLY requires the V5 shard tail (use --shard N)".into(),
                    ),
                };
                (&metrics.apply, reply)
            }
            Request::Inspect => {
                let text = self.router().inspect_text();
                (&metrics.admin, Reply::Stats { text })
            }
            Request::Health => {
                let text = self.router().health_text(ctx.draining());
                (&metrics.admin, Reply::Stats { text })
            }
            Request::Drain { addr, drained } => {
                let matched = self.router().set_drained(&addr, drained);
                let reply = if matched == 0 {
                    error_reply(
                        &metrics.admin,
                        format!("no replica with address {addr} in the shard map"),
                    )
                } else {
                    plog::log(
                        LogLevel::Info,
                        "router",
                        "replica_drained",
                        &[
                            ("addr", Value::Str(&addr)),
                            ("drained", Value::Bool(drained)),
                            ("replicas", Value::U64(matched as u64)),
                        ],
                    );
                    Reply::Stats {
                        text: format!(
                            "drained={} addr={addr} replicas={matched}\n",
                            if drained { 1 } else { 0 }
                        ),
                    }
                };
                (&metrics.admin, reply)
            }
            Request::Shutdown => {
                plog::log(LogLevel::Info, "router", "shutdown_requested", &[]);
                return Reply::ShuttingDown;
            }
            Request::Search { .. } | Request::Topk { .. } | Request::Batch(_) => {
                // Pin the routing table once: every column of a batch
                // routes over the same table.
                let router = self.router();
                answer_queries(req, &metrics.search, &metrics.topk, |solo| {
                    self.run_query(&router, solo, ctx.queue_wait)
                })
            }
        };
        endpoint.record(started.elapsed());
        reply
    }
}

/// The `STATS` text plane: router-level counters plus per-shard and
/// per-replica gauges (`shard<N>.…` keys, parseable with
/// [`pexeso_serve::stat_value`]).
fn render_stats(handler: &RouterHandler, router: &Router) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "uptime_seconds={}",
        handler.started.elapsed().as_secs()
    );
    let _ = writeln!(out, "shards={}", router.shard_count());
    let _ = writeln!(out, "generation={}", router.generation());
    handler.metrics.frame.render_text(&mut out);
    for (name, ep) in handler.metrics.endpoints() {
        let (p50, p99) = ep.latency_quantiles_us();
        let _ = writeln!(
            out,
            "{name}.requests={} {name}.errors={} {name}.p50_us={p50} {name}.p99_us={p99}",
            ep.requests.load(Ordering::Relaxed),
            ep.errors.load(Ordering::Relaxed),
        );
    }
    let q = router.query_latency();
    let _ = writeln!(
        out,
        "query.p50_us={} query.p99_us={} query.count={}",
        q.quantile(0.50),
        q.quantile(0.99),
        q.count
    );
    for (i, s) in router.shard_statuses().iter().enumerate() {
        let hi = if s.hi == u64::MAX {
            "*".to_string()
        } else {
            s.hi.to_string()
        };
        let _ = writeln!(
            out,
            "shard{i}.range=[{},{hi}) shard{i}.generation={} shard{i}.retries={} shard{i}.failovers={}",
            s.lo, s.generation, s.retry.retries, s.retry.failovers,
        );
        for r in &s.replicas {
            let _ = writeln!(
                out,
                "shard{i}.replica.{}.drained={} shard{i}.replica.{}.circuit_open={} shard{i}.replica.{}.failures={}",
                r.addr, r.drained as u8, r.addr, r.circuit_open as u8, r.addr, r.consecutive_failures,
            );
        }
    }
    out
}

/// The `METRICS` Prometheus plane. Validated against
/// [`pexeso_serve::validate_prometheus`] by the integration tests.
fn render_prometheus(handler: &RouterHandler, router: &Router) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let gauge = |out: &mut String, name: &str, help: &str, v: f64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    };
    gauge(
        &mut out,
        "pexeso_router_uptime_seconds",
        "Seconds since the router started.",
        handler.started.elapsed().as_secs_f64(),
    );
    gauge(
        &mut out,
        "pexeso_router_shards",
        "Shards in the routing table.",
        router.shard_count() as f64,
    );
    gauge(
        &mut out,
        "pexeso_router_generation",
        "Sum of per-shard snapshot generations.",
        router.generation() as f64,
    );
    let statuses = router.shard_statuses();
    let _ = writeln!(
        out,
        "# HELP pexeso_router_shard_generation Highest generation observed per shard."
    );
    let _ = writeln!(out, "# TYPE pexeso_router_shard_generation gauge");
    for (i, s) in statuses.iter().enumerate() {
        let _ = writeln!(
            out,
            "pexeso_router_shard_generation{{shard=\"{i}\"}} {}",
            s.generation
        );
    }
    let _ = writeln!(
        out,
        "# HELP pexeso_router_shard_retries_total Retries per shard client."
    );
    let _ = writeln!(out, "# TYPE pexeso_router_shard_retries_total counter");
    for (i, s) in statuses.iter().enumerate() {
        let _ = writeln!(
            out,
            "pexeso_router_shard_retries_total{{shard=\"{i}\"}} {}",
            s.retry.retries
        );
    }
    let _ = writeln!(
        out,
        "# HELP pexeso_router_replica_open Replica circuit state (1 = open) per shard replica."
    );
    let _ = writeln!(out, "# TYPE pexeso_router_replica_open gauge");
    for (i, s) in statuses.iter().enumerate() {
        for r in &s.replicas {
            let _ = writeln!(
                out,
                "pexeso_router_replica_open{{shard=\"{i}\",replica=\"{}\"}} {}",
                r.addr, r.circuit_open as u8
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP pexeso_router_replica_drained Replica administrative drain state per shard replica."
    );
    let _ = writeln!(out, "# TYPE pexeso_router_replica_drained gauge");
    for (i, s) in statuses.iter().enumerate() {
        for r in &s.replicas {
            let _ = writeln!(
                out,
                "pexeso_router_replica_drained{{shard=\"{i}\",replica=\"{}\"}} {}",
                r.addr, r.drained as u8
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP pexeso_router_requests_total Requests served, per endpoint."
    );
    let _ = writeln!(out, "# TYPE pexeso_router_requests_total counter");
    for (name, ep) in handler.metrics.endpoints() {
        let _ = writeln!(
            out,
            "pexeso_router_requests_total{{endpoint=\"{name}\"}} {}",
            ep.requests.load(Ordering::Relaxed)
        );
    }
    let _ = writeln!(
        out,
        "# HELP pexeso_router_errors_total Request errors, per endpoint."
    );
    let _ = writeln!(out, "# TYPE pexeso_router_errors_total counter");
    for (name, ep) in handler.metrics.endpoints() {
        let _ = writeln!(
            out,
            "pexeso_router_errors_total{{endpoint=\"{name}\"}} {}",
            ep.errors.load(Ordering::Relaxed)
        );
    }
    handler
        .metrics
        .frame
        .render_prometheus(&mut out, "pexeso_router");
    let _ = writeln!(
        out,
        "# HELP pexeso_router_query_latency_microseconds End-to-end routed query latency (scatter + merge)."
    );
    let _ = writeln!(
        out,
        "# TYPE pexeso_router_query_latency_microseconds histogram"
    );
    write_histogram_series(
        &mut out,
        "pexeso_router_query_latency_microseconds",
        "",
        &router.query_latency(),
    );
    out
}
