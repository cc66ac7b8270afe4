//! The wire protocol between `pexeso serve` and its clients.
//!
//! Every message is one length-prefixed frame: a `u32` little-endian
//! payload length followed by the payload. Request payloads start with the
//! magic `PXSV`, a protocol version byte, and a verb byte; reply payloads
//! start with a single kind byte. All integers are little-endian, strings
//! are `u32` length + UTF-8 bytes, and query vectors travel as raw `f32`
//! bits — the embedding happens client-side so the daemon stays agnostic
//! to embedder implementations.
//!
//! The protocol is deliberately synchronous per connection: a client sends
//! one request frame and reads one reply frame, any number of times, then
//! closes. Backpressure is explicit — an overloaded server answers a
//! connection with a [`Reply::Busy`] frame instead of queueing unboundedly.

use std::io::{Read, Write};
use std::time::Duration;

use pexeso_core::config::{ExecPolicy, JoinThreshold, LemmaFlags, Tau};
use pexeso_core::explain::{ExplainReport, FunnelStage, TopkExplain, TopkRound};
use pexeso_core::outofcore::GlobalHit;
use pexeso_core::query::{Exceeded, QueryMode, QueryOutcome, QueryResponse};
use pexeso_core::trace::{QueryTrace, TraceLevel, TraceSpan};

/// First bytes of every request payload.
pub const MAGIC: &[u8; 4] = b"PXSV";
/// Current protocol version. Version 2 adds the optional per-query
/// options/budget extension to `SEARCH`/`TOPK` requests and the extended
/// `HITS` reply; version 3 adds the `APPLY` verb (publish a new serve
/// generation from the deployment's delta log without reloading the base
/// snapshot); version 4 adds the `BATCH` verb (many query columns in one
/// frame, answered by one `HITS_BATCH` reply) and the `fixed` execution
/// policy tag; version 5 adds the observability plane — the per-query
/// trace request (a trace-level tail on `SEARCH`/`TOPK`/`BATCH` frames,
/// answered with a span tree in the `HITS_V3`/`HITS_BATCH_V2` reply
/// kinds) and the `METRICS` (Prometheus text exposition) and `SLOW`
/// (slow-query log dump) verbs; version 6 adds the introspection plane —
/// a request-id/explain tail on query frames (fleet-wide correlation ids
/// and the EXPLAIN funnel in the `HITS_V4` reply kind) and the `INSPECT`
/// (index statistics), `HEALTH` (readiness/drain state), and `DRAIN`
/// (router replica drain toggle) verbs. Frames are stamped with the
/// lowest version that can carry them — extension-less queries stay V1
/// and extended queries V2, so every pre-delta server and client keeps
/// interoperating; only `APPLY` frames are V3, only batch/`fixed`-policy
/// frames are V4, only traced queries and the V5 verbs are V5, and only
/// correlated/explained queries and the new verbs are V6.
pub const PROTOCOL_VERSION: u8 = 6;
/// Version that introduced the query options/budget extension.
pub const QUERY_EXT_VERSION: u8 = 2;
/// Version that introduced the batch verb and the `fixed` policy tag.
pub const BATCH_VERSION: u8 = 4;
/// Version that introduced query tracing and the METRICS/SLOW verbs.
///
/// A V5 query frame swaps the tail-presence rule for an explicit layout:
/// after the threshold/k field come an ext-presence byte, the extension
/// if present, and a trace-level byte. Encoders only stamp V5 when the
/// trace level is not `Off`, so untraced requests keep their old (V1–V4)
/// shapes bit-for-bit and old servers keep answering them.
pub const TRACE_VERSION: u8 = 5;
/// Version that introduced the request-id/explain query tail and the
/// INSPECT/HEALTH/DRAIN verbs.
///
/// A V6 query frame extends the V5 explicit tail with a request-id
/// presence byte (plus the id), then an explain byte. Encoders only
/// stamp V6 when a request id or the explain flag is actually carried,
/// so uncorrelated requests keep their old (V1–V5) shapes bit-for-bit
/// and old servers keep answering them.
pub const REQUEST_ID_VERSION: u8 = 6;
/// Oldest request version the server still parses.
pub const MIN_PROTOCOL_VERSION: u8 = 1;
/// Hard cap on a single frame; anything larger is treated as garbage
/// framing rather than a legitimate request.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

const VERB_INFO: u8 = 0;
const VERB_SEARCH: u8 = 1;
const VERB_TOPK: u8 = 2;
const VERB_STATS: u8 = 3;
const VERB_RELOAD: u8 = 4;
const VERB_SHUTDOWN: u8 = 5;
const VERB_APPLY: u8 = 6;
const VERB_BATCH: u8 = 7;
/// V5: Prometheus text exposition of the server metrics.
const VERB_METRICS: u8 = 8;
/// V5: dump the slow-query log (slowest traced requests + phase trees).
const VERB_SLOW: u8 = 9;
/// V6: index-statistics inspection (per-partition shape, postings and
/// cell-occupancy histograms, delta overlay depth) as text.
const VERB_INSPECT: u8 = 10;
/// V6: readiness/health probe (ready/degraded/draining, generation,
/// queue facts; the router rolls shard replica health into one answer).
const VERB_HEALTH: u8 = 11;
/// V6: toggle the drain flag of one replica address (router only; a
/// shard daemon answers `ERR` — drain a shard by draining its address
/// on the router).
const VERB_DRAIN: u8 = 12;

const REPLY_INFO: u8 = 0;
const REPLY_HITS: u8 = 1;
const REPLY_STATS: u8 = 2;
const REPLY_RELOADED: u8 = 3;
const REPLY_SHUTTING_DOWN: u8 = 4;
/// V2 `HITS` reply carrying the outcome/stats extension. Only ever sent
/// in answer to a V2 request, so V1 clients never see this kind byte.
const REPLY_HITS_V2: u8 = 5;
/// Reply to the V3 `APPLY` verb; never sent to older clients (they
/// cannot encode the request).
const REPLY_APPLIED: u8 = 6;
/// Reply to the V4 `BATCH` verb: one `HITS`-shaped entry per query
/// column, in request order. Never sent to older clients.
const REPLY_HITS_BATCH: u8 = 7;
/// V5 `HITS` reply carrying a query trace (explicit-ext body + span
/// tree). Only ever sent in answer to a traced (V5) request.
const REPLY_HITS_V3: u8 = 8;
/// V5 `HITS_BATCH` reply whose entries carry per-entry trace trees. Only
/// ever sent in answer to a traced (V5) batch request.
const REPLY_HITS_BATCH_V2: u8 = 9;
/// V6 `HITS` reply carrying an EXPLAIN funnel (explicit-ext body, a
/// trace-presence byte + tree, then the report). Only ever sent in
/// answer to an explain-requesting (V6) request.
const REPLY_HITS_V4: u8 = 10;
/// A request popped off the queue after its own deadline already
/// elapsed: answered typed instead of computing a dead result.
const REPLY_DEADLINE_EXPIRED: u8 = 248;
/// Early load shedding: the queue crossed its soft watermark.
const REPLY_SHED: u8 = 249;
const REPLY_BUSY: u8 = 250;
const REPLY_ERR: u8 = 251;

/// Wire-level failure: transport I/O or a malformed frame.
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

type WireResult<T> = std::result::Result<T, WireError>;

/// The version-2 per-query options/budget extension of `SEARCH`/`TOPK`
/// frames. Its presence is what makes a request a V2 frame; V1 frames
/// decode with `ext: None` and the server applies the defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryExt {
    /// Lemma toggles (results never change; ablation/throughput knob).
    pub flags: LemmaFlags,
    /// Quick-browsing shortcut toggle.
    pub quick_browse: bool,
    /// Cap on exact distance computations; `None` = unlimited.
    pub max_distance_computations: Option<u64>,
    /// Wall-clock allowance in milliseconds; `None` = unlimited.
    pub deadline_ms: Option<u64>,
}

impl Default for QueryExt {
    fn default() -> Self {
        Self {
            flags: LemmaFlags::all(),
            quick_browse: true,
            max_distance_computations: None,
            deadline_ms: None,
        }
    }
}

/// The query half shared by `SEARCH` and `TOPK`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPayload {
    /// Distance metric name (`euclidean`, `manhattan`, `chebyshev`,
    /// `angular`); must match the metric the index was built with.
    pub metric: String,
    pub tau: Tau,
    /// Requested execution policy for this query; the server clamps the
    /// thread count to its own ceiling.
    pub policy: ExecPolicy,
    pub dim: u32,
    /// Row-major query vectors, `len = n * dim`.
    pub vectors: Vec<f32>,
    /// V2 options/budget extension; `None` encodes a V1 frame so old
    /// servers and clients interoperate.
    pub ext: Option<QueryExt>,
    /// V5 trace request. Anything but `Off` makes the frame V5 and asks
    /// the server to return its phase tree in the reply.
    pub trace: TraceLevel,
    /// V6 fleet-wide correlation id, minted at the outermost hop and
    /// propagated unchanged; `Some` makes the frame V6. Never part of
    /// the cache fingerprint — correlation must not split cache lines.
    pub request_id: Option<u64>,
    /// V6 explain request: `true` makes the frame V6 and asks the
    /// server to return the candidate funnel in a `HITS_V4` reply.
    pub explain: bool,
}

impl QueryPayload {
    /// Number of query vectors carried.
    pub fn n_vectors(&self) -> usize {
        if self.dim == 0 {
            0
        } else {
            self.vectors.len() / self.dim as usize
        }
    }
}

/// The ranking half of a V4 batch frame: one threshold or one k shared
/// by every column in the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchMode {
    Search(JoinThreshold),
    Topk(u64),
}

/// A V4 batch request: the query criteria once, then many query columns.
/// The server answers with one [`Reply::HitsBatch`] whose `i`-th entry is
/// exactly what a solo `SEARCH`/`TOPK` over `columns[i]` would return —
/// batching changes one round-trip and one snapshot pin, never results.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatch {
    /// Distance metric name; must match the index's metric.
    pub metric: String,
    pub tau: Tau,
    /// Requested execution policy; the server clamps the thread count.
    pub policy: ExecPolicy,
    pub mode: BatchMode,
    pub dim: u32,
    /// Row-major vectors per query column; `columns[i].len()` is a
    /// multiple of `dim`.
    pub columns: Vec<Vec<f32>>,
    /// Options/budget extension shared by every column in the batch.
    pub ext: Option<QueryExt>,
    /// V5 trace request, applied to every column in the batch.
    pub trace: TraceLevel,
    /// V6 correlation id for the whole batch (per-entry explain is not
    /// carried — explain solo queries instead).
    pub request_id: Option<u64>,
}

impl QueryBatch {
    /// The solo request column `i` is equivalent to — used both for
    /// execution and for result-cache fingerprinting, so batch and solo
    /// traffic share cache lines. Batches carry no explain request.
    pub(crate) fn column_request(&self, i: usize) -> Request {
        let query = QueryPayload {
            metric: self.metric.clone(),
            tau: self.tau,
            policy: self.policy,
            dim: self.dim,
            vectors: self.columns[i].clone(),
            ext: self.ext,
            trace: self.trace,
            request_id: self.request_id,
            explain: false,
        };
        match self.mode {
            BatchMode::Search(t) => Request::Search { query, t },
            BatchMode::Topk(k) => Request::Topk { query, k },
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Deployment facts a client needs before it can query (dimension,
    /// snapshot generation, partition count).
    Info,
    /// Threshold search: every column with ≥ T matching query records.
    Search {
        query: QueryPayload,
        t: JoinThreshold,
    },
    /// Top-k search: the k columns with the most matching query records.
    Topk { query: QueryPayload, k: u64 },
    /// Per-endpoint counters and latency quantiles as `key=value` text.
    Stats,
    /// V5: the server metrics in Prometheus text exposition format.
    Metrics,
    /// V5: the slow-query log — the slowest sampled/traced requests with
    /// their phase trees, slowest first.
    SlowLog,
    /// Atomically hot-swap the served snapshot: re-open the given
    /// directory (`None` = the currently served one) and bump the
    /// generation. In-flight queries finish on the old snapshot.
    Reload { dir: Option<String> },
    /// V3: replay the served directory's delta log over the *already
    /// resident* base snapshot and publish the result as a new
    /// generation — live ingest without reloading a single partition.
    /// Falls back to a full reload only if the base build itself changed
    /// underneath the daemon.
    ///
    /// `shard` is the V5 routed-ingest tail: a router receiving
    /// `Some(i)` forwards the APPLY to every replica of shard `i` only
    /// (the owning shard), leaving every other shard's generation
    /// untouched. A shard daemon ignores the field (it owns exactly one
    /// deployment); `None` encodes byte-identically to the historical
    /// bare V3 frame, so un-upgraded peers interoperate unchanged.
    ApplyDelta { shard: Option<u32> },
    /// V4: many query columns under one set of criteria, answered in one
    /// reply frame — `Queryable::execute_many` on the wire.
    Batch(QueryBatch),
    /// V6: index-statistics inspection as `key=value` text (per-partition
    /// shape, postings/cell-occupancy histograms, delta overlay depth).
    Inspect,
    /// V6: readiness probe — `status=ready|degraded|draining` plus
    /// generation and queue facts; the router answers with the fleet
    /// roll-up.
    Health,
    /// V6, router only: set/clear the drain flag of the replica at
    /// `addr` across every shard that has it. A drained replica stops
    /// receiving routed queries but stays connected for un-drain.
    Drain { addr: String, drained: bool },
    /// Stop accepting connections and exit once in-flight work drains.
    Shutdown,
}

impl Request {
    /// The payload and ranking of a solo query verb (`SEARCH`/`TOPK`).
    pub fn query(&self) -> Option<(&QueryPayload, QueryMode)> {
        match self {
            Request::Search { query, t } => Some((query, QueryMode::Threshold(*t))),
            Request::Topk { query, k } => Some((query, QueryMode::Topk(*k as usize))),
            _ => None,
        }
    }

    /// The deadline a query or batch frame carries, if any.
    pub(crate) fn deadline(&self) -> Option<Duration> {
        let ext = match self {
            Request::Search { query, .. } | Request::Topk { query, .. } => query.ext.as_ref(),
            Request::Batch(batch) => batch.ext.as_ref(),
            _ => None,
        };
        ext.and_then(|ext| ext.deadline_ms)
            .map(Duration::from_millis)
    }

    /// The correlation id a query or batch frame carries, if any.
    pub(crate) fn request_id(&self) -> Option<u64> {
        match self {
            Request::Search { query, .. } | Request::Topk { query, .. } => query.request_id,
            Request::Batch(batch) => batch.request_id,
            _ => None,
        }
    }
}

/// One joinable column on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHit {
    pub external_id: u64,
    pub table_name: String,
    pub column_name: String,
    pub match_count: u32,
}

impl From<&GlobalHit> for WireHit {
    fn from(h: &GlobalHit) -> Self {
        WireHit {
            external_id: h.external_id,
            table_name: h.table_name.clone(),
            column_name: h.column_name.clone(),
            match_count: h.match_count,
        }
    }
}

/// Reply to [`Request::Info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoReply {
    pub dim: u32,
    /// Serve-side snapshot generation; bumps on every hot swap.
    pub generation: u64,
    /// `index_version` from the deployment manifest.
    pub index_version: u64,
    pub partitions: u32,
    pub disk_bytes: u64,
}

/// The V2 `HITS` reply extension: the unified query outcome plus the
/// verification cost, so remote callers get the same exactness contract
/// local backends report. Cached replies carry `QueryOutcome::Exact` and
/// zero distance computations (only exact results are ever cached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitsExt {
    pub outcome: QueryOutcome,
    pub distance_computations: u64,
}

/// Reply to [`Request::Search`] / [`Request::Topk`].
#[derive(Debug, Clone, PartialEq)]
pub struct HitsReply {
    /// Generation of the snapshot that answered (or populated the cached
    /// entry for) this query.
    pub generation: u64,
    /// True when the reply was served from the result cache.
    pub cached: bool,
    pub hits: Vec<WireHit>,
    /// Outcome/stats extension, present iff the request was a V2 frame.
    pub ext: Option<HitsExt>,
    /// Server-side phase tree, present iff the request asked for a trace
    /// (V5). Cached replies carry no trace — traced requests bypass the
    /// result cache so the tree always describes *this* execution.
    pub trace: Option<QueryTrace>,
    /// Server-side EXPLAIN funnel, present iff the request asked for one
    /// (V6). Like traces, explain-requesting queries bypass the result
    /// cache so the funnel always describes *this* execution. Boxed so
    /// the common explain-free reply doesn't pay the report's footprint.
    pub explain: Option<Box<ExplainReport>>,
}

impl HitsReply {
    /// The reply to a query a daemon just executed at `generation`. The
    /// outcome/stats extension is present iff the request frame carried
    /// one (`ext`); the phase tree travels back only if the client asked
    /// for it (`with_trace`) — a server-sampled trace never changes the
    /// reply shape.
    pub fn executed(generation: u64, resp: QueryResponse, ext: bool, with_trace: bool) -> Self {
        HitsReply {
            generation,
            cached: false,
            hits: resp.hits.iter().map(WireHit::from).collect(),
            ext: ext.then_some(HitsExt {
                outcome: resp.outcome,
                distance_computations: resp.stats.distance_computations,
            }),
            trace: resp.trace.filter(|_| with_trace),
            explain: resp.explain.map(Box::new),
        }
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Info(InfoReply),
    Hits(HitsReply),
    /// Reply to [`Request::Batch`]: one [`HitsReply`] per query column,
    /// in request order.
    HitsBatch(Vec<HitsReply>),
    Stats {
        text: String,
    },
    Reloaded {
        generation: u64,
        partitions: u32,
    },
    /// Reply to [`Request::ApplyDelta`]: the new generation plus the
    /// overlay shape it serves.
    Applied {
        generation: u64,
        delta_columns: u64,
        tombstones: u64,
    },
    ShuttingDown,
    /// Explicit backpressure: worker pool and request queue are full.
    Busy,
    /// Early load shedding: the connection queue crossed its *soft*
    /// watermark, so the server rejected this connection before the hard
    /// BUSY limit — semantically identical to `Busy` for the caller
    /// (retry elsewhere / back off), but counted separately so operators
    /// can see degradation begin before saturation.
    Shed,
    /// The request's deadline budget had already elapsed while it waited
    /// in the queue; the server refused to compute a dead answer.
    /// Carries how long the request waited before being popped.
    DeadlineExpired {
        waited_ms: u64,
    },
    Err {
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly before starting a new frame.
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Malformed("eof inside frame length".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Malformed(format!(
            "frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| WireError::Malformed(format!("eof inside frame body: {e}")))?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload encoding primitives
// ---------------------------------------------------------------------------

struct ByteWriter(Vec<u8>);

impl ByteWriter {
    fn new() -> Self {
        ByteWriter(Vec::new())
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn f32_slice(&mut self, data: &[f32]) {
        self.0.reserve(data.len() * 4);
        for v in data {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }
}

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("truncated payload".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.bytes(1)?[0])
    }
    /// Whether any payload bytes remain unread. The options/budget
    /// extension sits at the tail of SEARCH/TOPK frames, so its presence
    /// is "bytes remain" — the same prefix-layout rule that lets a V2
    /// decoder accept a V1 frame.
    fn has_remaining(&self) -> bool {
        self.pos < self.buf.len()
    }
    fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn str(&mut self, limit: u32) -> WireResult<String> {
        let len = self.u32()?;
        if len > limit {
            return Err(WireError::Malformed(format!(
                "string of {len} bytes exceeds limit {limit}"
            )));
        }
        let bytes = self.bytes(len as usize)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Malformed(format!("invalid utf-8: {e}")))
    }
    fn f32_vec(&mut self, n: usize) -> WireResult<Vec<f32>> {
        let raw = self
            .bytes(n.checked_mul(4).ok_or_else(|| {
                WireError::Malformed(format!("f32 vector length {n} overflows"))
            })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
    fn finish(&self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes in payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_tau(w: &mut ByteWriter, tau: Tau) {
    match tau {
        Tau::Absolute(v) => {
            w.u8(0);
            w.f32(v);
        }
        Tau::Ratio(v) => {
            w.u8(1);
            w.f32(v);
        }
    }
}

fn take_tau(r: &mut ByteReader) -> WireResult<Tau> {
    match r.u8()? {
        0 => Ok(Tau::Absolute(r.f32()?)),
        1 => Ok(Tau::Ratio(r.f32()?)),
        t => Err(WireError::Malformed(format!("unknown tau tag {t}"))),
    }
}

fn put_threshold(w: &mut ByteWriter, t: JoinThreshold) {
    match t {
        JoinThreshold::Count(c) => {
            w.u8(0);
            w.u64(c as u64);
        }
        JoinThreshold::Ratio(rat) => {
            w.u8(1);
            w.f64(rat);
        }
    }
}

fn take_threshold(r: &mut ByteReader) -> WireResult<JoinThreshold> {
    match r.u8()? {
        0 => Ok(JoinThreshold::Count(r.u64()? as usize)),
        1 => Ok(JoinThreshold::Ratio(r.f64()?)),
        t => Err(WireError::Malformed(format!("unknown threshold tag {t}"))),
    }
}

fn put_policy(w: &mut ByteWriter, p: ExecPolicy) {
    match p {
        ExecPolicy::Sequential => {
            w.u8(0);
            w.u32(0);
        }
        ExecPolicy::Parallel { threads } => {
            w.u8(1);
            w.u32(threads as u32);
        }
        // V4 tag: pre-V4 decoders reject it as an unknown tag, and the
        // encoder stamps any frame carrying it with BATCH_VERSION so
        // old servers refuse cleanly at the version check instead.
        ExecPolicy::Fixed { threads } => {
            w.u8(2);
            w.u32(threads as u32);
        }
    }
}

fn take_policy(r: &mut ByteReader) -> WireResult<ExecPolicy> {
    let tag = r.u8()?;
    let threads = r.u32()? as usize;
    match tag {
        0 => Ok(ExecPolicy::Sequential),
        1 => Ok(ExecPolicy::Parallel { threads }),
        2 => Ok(ExecPolicy::Fixed {
            threads: threads.max(1),
        }),
        t => Err(WireError::Malformed(format!("unknown policy tag {t}"))),
    }
}

fn put_query(w: &mut ByteWriter, q: &QueryPayload) {
    w.str(&q.metric);
    put_tau(w, q.tau);
    put_policy(w, q.policy);
    w.u32(q.dim);
    w.u32(q.n_vectors() as u32);
    w.f32_slice(&q.vectors);
}

fn take_query(r: &mut ByteReader) -> WireResult<QueryPayload> {
    let metric = r.str(64)?;
    let tau = take_tau(r)?;
    let policy = take_policy(r)?;
    let dim = r.u32()?;
    let n = r.u32()?;
    if dim == 0 {
        return Err(WireError::Malformed("query dimension is zero".into()));
    }
    let vectors = r.f32_vec(n as usize * dim as usize)?;
    Ok(QueryPayload {
        metric,
        tau,
        policy,
        dim,
        vectors,
        ext: None,
        trace: TraceLevel::Off,
        request_id: None,
        explain: false,
    })
}

fn put_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            w.u64(x);
        }
    }
}

fn take_opt_u64(r: &mut ByteReader) -> WireResult<Option<u64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(WireError::Malformed(format!("unknown option tag {t}"))),
    }
}

/// The V2 options/budget extension, appended after the request's
/// threshold/k field. Lemma flags travel as a 4-bit mask.
fn put_query_ext(w: &mut ByteWriter, ext: &QueryExt) {
    let mut mask = 0u8;
    if ext.flags.lemma1_vector_filter {
        mask |= 1;
    }
    if ext.flags.lemma2_vector_match {
        mask |= 2;
    }
    if ext.flags.lemma34_cell_filter {
        mask |= 4;
    }
    if ext.flags.lemma56_cell_match {
        mask |= 8;
    }
    w.u8(mask);
    w.u8(ext.quick_browse as u8);
    put_opt_u64(w, ext.max_distance_computations);
    put_opt_u64(w, ext.deadline_ms);
}

fn take_query_ext(r: &mut ByteReader) -> WireResult<QueryExt> {
    let mask = r.u8()?;
    if mask & !0xf != 0 {
        return Err(WireError::Malformed(format!(
            "unknown lemma bits {mask:#x}"
        )));
    }
    let flags = LemmaFlags {
        lemma1_vector_filter: mask & 1 != 0,
        lemma2_vector_match: mask & 2 != 0,
        lemma34_cell_filter: mask & 4 != 0,
        lemma56_cell_match: mask & 8 != 0,
    };
    let quick_browse = r.u8()? != 0;
    let max_distance_computations = take_opt_u64(r)?;
    let deadline_ms = take_opt_u64(r)?;
    Ok(QueryExt {
        flags,
        quick_browse,
        max_distance_computations,
        deadline_ms,
    })
}

/// The tail of a `SEARCH`/`TOPK` frame after the threshold/k field.
/// Untraced frames keep the historical tail-presence layout (the
/// extension simply is or isn't there, and its presence makes the frame
/// V2+); traced frames are V5 and use the explicit layout: an
/// ext-presence byte, the extension if present, then the trace level.
/// Decode the tail written by [`put_query_tail`]. V5 frames carry the
/// explicit ext-presence + trace-level layout; older frames keep the
/// tail-presence rule (not version-implied: a V4 stamp can come from the
/// `Fixed` policy tag alone, with no extension encoded).
fn take_query_tail(r: &mut ByteReader, version: u8, query: &mut QueryPayload) -> WireResult<()> {
    if version >= TRACE_VERSION {
        match r.u8()? {
            0 => {}
            1 => query.ext = Some(take_query_ext(r)?),
            t => return Err(WireError::Malformed(format!("unknown ext tag {t}"))),
        }
        query.trace = TraceLevel::from_u8(r.u8()?);
        // The V6 request-id/explain tail. Presence-tolerant (mirroring
        // the APPLY shard tail): a V6 stamp without the tail decodes as
        // an uncorrelated, unexplained query.
        if version >= REQUEST_ID_VERSION && r.has_remaining() {
            query.request_id = take_opt_u64(r)?;
            query.explain = r.u8()? != 0;
        }
    } else if version >= QUERY_EXT_VERSION && r.has_remaining() {
        query.ext = Some(take_query_ext(r)?);
    }
    Ok(())
}

fn put_query_tail(w: &mut ByteWriter, q: &QueryPayload) {
    let v6 = q.request_id.is_some() || q.explain;
    if q.trace.enabled() || v6 {
        match &q.ext {
            None => w.u8(0),
            Some(ext) => {
                w.u8(1);
                put_query_ext(w, ext);
            }
        }
        w.u8(q.trace.as_u8());
        if v6 {
            put_opt_u64(w, q.request_id);
            w.u8(q.explain as u8);
        }
    } else if let Some(ext) = &q.ext {
        put_query_ext(w, ext);
    }
}

/// Recursion/size limits for decoding a span tree from the wire: deeper
/// or wider trees are treated as garbage, not a reason to recurse to a
/// stack overflow.
const MAX_TRACE_DEPTH: usize = 16;
const MAX_TRACE_SPANS: u32 = 4096;

fn put_span(w: &mut ByteWriter, s: &TraceSpan) {
    w.str(&s.name);
    w.u64(s.start_us);
    w.u64(s.duration_us);
    w.u32(s.counters.len() as u32);
    for (k, v) in &s.counters {
        w.str(k);
        w.u64(*v);
    }
    w.u32(s.children.len() as u32);
    for c in &s.children {
        put_span(w, c);
    }
}

fn take_span(r: &mut ByteReader, depth: usize, budget: &mut u32) -> WireResult<TraceSpan> {
    if depth > MAX_TRACE_DEPTH {
        return Err(WireError::Malformed("trace tree too deep".into()));
    }
    *budget = budget
        .checked_sub(1)
        .ok_or_else(|| WireError::Malformed("trace tree too large".into()))?;
    let name = r.str(256)?;
    let start_us = r.u64()?;
    let duration_us = r.u64()?;
    let n_counters = r.u32()?;
    if n_counters > 256 {
        return Err(WireError::Malformed("too many span counters".into()));
    }
    let mut counters = Vec::with_capacity(n_counters as usize);
    for _ in 0..n_counters {
        let k = r.str(256)?;
        let v = r.u64()?;
        counters.push((k, v));
    }
    let n_children = r.u32()?;
    if n_children > MAX_TRACE_SPANS {
        return Err(WireError::Malformed("too many child spans".into()));
    }
    let mut children = Vec::with_capacity(n_children.min(256) as usize);
    for _ in 0..n_children {
        children.push(take_span(r, depth + 1, budget)?);
    }
    Ok(TraceSpan {
        name,
        start_us,
        duration_us,
        counters,
        children,
    })
}

fn put_trace(w: &mut ByteWriter, t: &QueryTrace) {
    put_span(w, &t.root);
}

fn take_trace(r: &mut ByteReader) -> WireResult<QueryTrace> {
    let mut budget = MAX_TRACE_SPANS;
    Ok(QueryTrace {
        root: take_span(r, 0, &mut budget)?,
    })
}

/// Size limits for decoding an EXPLAIN report: anything larger is
/// treated as garbage, like an oversized trace tree.
const MAX_EXPLAIN_STAGES: u32 = 64;
const MAX_EXPLAIN_REASONS: u32 = 64;
const MAX_EXPLAIN_DECISIONS: u32 = 256;
const MAX_EXPLAIN_ROUNDS: u32 = 1 << 16;
const MAX_EXPLAIN_COLUMNS: u32 = 4096;

fn put_opt_u32(w: &mut ByteWriter, v: Option<u32>) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            w.u32(x);
        }
    }
}

fn take_opt_u32(r: &mut ByteReader) -> WireResult<Option<u32>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u32()?)),
        t => Err(WireError::Malformed(format!("unknown option tag {t}"))),
    }
}

fn put_explain(w: &mut ByteWriter, e: &ExplainReport) {
    w.str(&e.mode);
    w.u32(e.stages.len() as u32);
    for s in &e.stages {
        w.str(&s.name);
        w.str(&s.unit);
        w.u64(s.input);
        w.u32(s.pruned.len() as u32);
        for (reason, n) in &s.pruned {
            w.str(reason);
            w.u64(*n);
        }
        w.u64(s.output);
    }
    w.u32(e.decisions.len() as u32);
    for d in &e.decisions {
        w.str(d);
    }
    match &e.topk {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            put_opt_u32(w, t.seed);
            w.u64(t.survivors);
            w.u32(t.rounds.len() as u32);
            for round in &t.rounds {
                put_opt_u32(w, round.bar);
                w.u32(round.batch);
                w.u32(round.pruned);
            }
            w.u32(t.pruned_columns.len() as u32);
            for (c, ub) in &t.pruned_columns {
                w.u32(*c);
                w.u32(*ub);
            }
            w.u8(t.suffix_stop as u8);
        }
    }
}

fn take_explain(r: &mut ByteReader) -> WireResult<ExplainReport> {
    let mode = r.str(64)?;
    let n_stages = r.u32()?;
    if n_stages > MAX_EXPLAIN_STAGES {
        return Err(WireError::Malformed("too many explain stages".into()));
    }
    let mut stages = Vec::with_capacity(n_stages as usize);
    for _ in 0..n_stages {
        let name = r.str(256)?;
        let unit = r.str(256)?;
        let input = r.u64()?;
        let n_pruned = r.u32()?;
        if n_pruned > MAX_EXPLAIN_REASONS {
            return Err(WireError::Malformed(
                "too many explain prune reasons".into(),
            ));
        }
        let mut pruned = Vec::with_capacity(n_pruned as usize);
        for _ in 0..n_pruned {
            let reason = r.str(256)?;
            let n = r.u64()?;
            pruned.push((reason, n));
        }
        let output = r.u64()?;
        stages.push(FunnelStage {
            name,
            unit,
            input,
            pruned,
            output,
        });
    }
    let n_decisions = r.u32()?;
    if n_decisions > MAX_EXPLAIN_DECISIONS {
        return Err(WireError::Malformed("too many explain decisions".into()));
    }
    let mut decisions = Vec::with_capacity(n_decisions as usize);
    for _ in 0..n_decisions {
        decisions.push(r.str(4096)?);
    }
    let topk = match r.u8()? {
        0 => None,
        1 => {
            let seed = take_opt_u32(r)?;
            let survivors = r.u64()?;
            let n_rounds = r.u32()?;
            if n_rounds > MAX_EXPLAIN_ROUNDS {
                return Err(WireError::Malformed("too many explain rounds".into()));
            }
            let mut rounds = Vec::with_capacity(n_rounds.min(1 << 10) as usize);
            for _ in 0..n_rounds {
                rounds.push(TopkRound {
                    bar: take_opt_u32(r)?,
                    batch: r.u32()?,
                    pruned: r.u32()?,
                });
            }
            let n_cols = r.u32()?;
            if n_cols > MAX_EXPLAIN_COLUMNS {
                return Err(WireError::Malformed("too many explain columns".into()));
            }
            let mut pruned_columns = Vec::with_capacity(n_cols as usize);
            for _ in 0..n_cols {
                let c = r.u32()?;
                let ub = r.u32()?;
                pruned_columns.push((c, ub));
            }
            let suffix_stop = r.u8()? != 0;
            Some(TopkExplain {
                seed,
                survivors,
                rounds,
                pruned_columns,
                suffix_stop,
            })
        }
        t => return Err(WireError::Malformed(format!("unknown explain tag {t}"))),
    };
    Ok(ExplainReport {
        mode,
        stages,
        decisions,
        topk,
    })
}

fn put_outcome(w: &mut ByteWriter, outcome: QueryOutcome) {
    w.u8(match outcome {
        QueryOutcome::Exact => 0,
        QueryOutcome::Exceeded(Exceeded::DistanceComputations) => 1,
        QueryOutcome::Exceeded(Exceeded::Deadline) => 2,
    })
}

fn take_outcome(r: &mut ByteReader) -> WireResult<QueryOutcome> {
    match r.u8()? {
        0 => Ok(QueryOutcome::Exact),
        1 => Ok(QueryOutcome::Exceeded(Exceeded::DistanceComputations)),
        2 => Ok(QueryOutcome::Exceeded(Exceeded::Deadline)),
        t => Err(WireError::Malformed(format!("unknown outcome tag {t}"))),
    }
}

/// The shared body of a `HITS`-shaped reply. Solo replies signal the
/// extension through the kind byte (`HITS` vs `HITS_V2`), so
/// `explicit_ext` is false; batch entries have no per-entry kind byte and
/// carry an explicit presence byte instead.
fn put_hits_body(w: &mut ByteWriter, h: &HitsReply, explicit_ext: bool) {
    w.u64(h.generation);
    w.u8(h.cached as u8);
    if explicit_ext {
        w.u8(h.ext.is_some() as u8);
    }
    if let Some(ext) = &h.ext {
        put_outcome(w, ext.outcome);
        w.u64(ext.distance_computations);
    }
    w.u32(h.hits.len() as u32);
    for hit in &h.hits {
        w.u64(hit.external_id);
        w.str(&hit.table_name);
        w.str(&hit.column_name);
        w.u32(hit.match_count);
    }
}

/// Decode the body written by [`put_hits_body`]. `known_ext` is
/// `Some(has_ext)` when the kind byte already decided it (solo replies)
/// and `None` when an explicit presence byte follows (batch entries).
fn take_hits_body(r: &mut ByteReader, known_ext: Option<bool>) -> WireResult<HitsReply> {
    let generation = r.u64()?;
    let cached = r.u8()? != 0;
    let has_ext = match known_ext {
        Some(b) => b,
        None => r.u8()? != 0,
    };
    let ext = if has_ext {
        Some(HitsExt {
            outcome: take_outcome(r)?,
            distance_computations: r.u64()?,
        })
    } else {
        None
    };
    let n = r.u32()? as usize;
    let mut hits = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        hits.push(WireHit {
            external_id: r.u64()?,
            table_name: r.str(1 << 16)?,
            column_name: r.str(1 << 16)?,
            match_count: r.u32()?,
        });
    }
    Ok(HitsReply {
        generation,
        cached,
        hits,
        ext,
        trace: None,
        explain: None,
    })
}

// ---------------------------------------------------------------------------
// Request / reply codecs
// ---------------------------------------------------------------------------

/// Encode a request into a frame payload. Every frame is stamped with
/// the lowest protocol version able to carry it: query verbs with the
/// options/budget extension are version 2 (the V1 byte layout is a
/// strict prefix of the V2 one), `APPLY` is version 3, `BATCH` and any
/// frame carrying a `fixed` execution policy is version 4, and
/// everything else — including extension-less query frames — stays
/// version 1, so an un-upgraded server keeps answering everything it
/// can.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.0.extend_from_slice(MAGIC);
    let version = match req {
        Request::Search { query, .. } | Request::Topk { query, .. }
            if query.request_id.is_some() || query.explain =>
        {
            REQUEST_ID_VERSION
        }
        Request::Search { query, .. } | Request::Topk { query, .. } if query.trace.enabled() => {
            TRACE_VERSION
        }
        Request::Search { query, .. } | Request::Topk { query, .. }
            if matches!(query.policy, ExecPolicy::Fixed { .. }) =>
        {
            BATCH_VERSION
        }
        Request::Search { query, .. } | Request::Topk { query, .. } if query.ext.is_some() => {
            QUERY_EXT_VERSION
        }
        // A routed APPLY names its target shard in a V5 tail; the bare
        // form stays the historical V3 frame, byte for byte.
        Request::ApplyDelta { shard: Some(_) } => TRACE_VERSION,
        Request::ApplyDelta { shard: None } => 3,
        Request::Batch(b) if b.request_id.is_some() => REQUEST_ID_VERSION,
        Request::Batch(b) if b.trace.enabled() => TRACE_VERSION,
        Request::Batch(_) => BATCH_VERSION,
        Request::Metrics | Request::SlowLog => TRACE_VERSION,
        Request::Inspect | Request::Health | Request::Drain { .. } => REQUEST_ID_VERSION,
        _ => MIN_PROTOCOL_VERSION,
    };
    w.u8(version);
    match req {
        Request::Info => w.u8(VERB_INFO),
        Request::Search { query, t } => {
            w.u8(VERB_SEARCH);
            put_query(&mut w, query);
            put_threshold(&mut w, *t);
            put_query_tail(&mut w, query);
        }
        Request::Topk { query, k } => {
            w.u8(VERB_TOPK);
            put_query(&mut w, query);
            w.u64(*k);
            put_query_tail(&mut w, query);
        }
        Request::Stats => w.u8(VERB_STATS),
        Request::Metrics => w.u8(VERB_METRICS),
        Request::SlowLog => w.u8(VERB_SLOW),
        Request::Inspect => w.u8(VERB_INSPECT),
        Request::Health => w.u8(VERB_HEALTH),
        Request::Drain { addr, drained } => {
            w.u8(VERB_DRAIN);
            w.str(addr);
            w.u8(*drained as u8);
        }
        Request::Reload { dir } => {
            w.u8(VERB_RELOAD);
            w.str(dir.as_deref().unwrap_or(""));
        }
        Request::ApplyDelta { shard } => {
            w.u8(VERB_APPLY);
            if let Some(shard) = shard {
                w.u32(*shard);
            }
        }
        Request::Batch(batch) => {
            w.u8(VERB_BATCH);
            w.str(&batch.metric);
            put_tau(&mut w, batch.tau);
            put_policy(&mut w, batch.policy);
            match batch.mode {
                BatchMode::Search(t) => {
                    w.u8(0);
                    put_threshold(&mut w, t);
                }
                BatchMode::Topk(k) => {
                    w.u8(1);
                    w.u64(k);
                }
            }
            w.u32(batch.dim);
            w.u32(batch.columns.len() as u32);
            for col in &batch.columns {
                w.u32((col.len() / batch.dim.max(1) as usize) as u32);
                w.f32_slice(col);
            }
            // Batch frames are always V4+, so ext presence is an explicit
            // byte rather than version-implied as in SEARCH/TOPK.
            match &batch.ext {
                None => w.u8(0),
                Some(ext) => {
                    w.u8(1);
                    put_query_ext(&mut w, ext);
                }
            }
            // The V5 trace level rides at the tail; its presence is what
            // made the frame V5 in the first place. A V6 (correlated)
            // batch always writes the trace byte — even `Off` — so the
            // request-id tail that follows is unambiguous.
            if batch.trace.enabled() || batch.request_id.is_some() {
                w.u8(batch.trace.as_u8());
            }
            if batch.request_id.is_some() {
                put_opt_u64(&mut w, batch.request_id);
            }
        }
        Request::Shutdown => w.u8(VERB_SHUTDOWN),
    }
    w.0
}

/// Decode a frame payload into a request. Accepts every version from
/// [`MIN_PROTOCOL_VERSION`] to [`PROTOCOL_VERSION`]: V1 query frames
/// decode with `ext: None`, V2 frames carry the trailing extension.
pub fn decode_request(payload: &[u8]) -> WireResult<Request> {
    let mut r = ByteReader::new(payload);
    if r.bytes(4)? != MAGIC {
        return Err(WireError::Malformed("bad request magic".into()));
    }
    let version = r.u8()?;
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(WireError::Malformed(format!(
            "protocol version {version} unsupported \
             (want {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
        )));
    }
    let req = match r.u8()? {
        VERB_INFO => Request::Info,
        VERB_SEARCH => {
            let mut query = take_query(&mut r)?;
            let t = take_threshold(&mut r)?;
            take_query_tail(&mut r, version, &mut query)?;
            Request::Search { query, t }
        }
        VERB_TOPK => {
            let mut query = take_query(&mut r)?;
            let k = r.u64()?;
            take_query_tail(&mut r, version, &mut query)?;
            Request::Topk { query, k }
        }
        VERB_STATS => Request::Stats,
        VERB_METRICS => {
            if version < TRACE_VERSION {
                return Err(WireError::Malformed(format!(
                    "METRICS verb requires protocol version {TRACE_VERSION}, \
                     frame is version {version}"
                )));
            }
            Request::Metrics
        }
        VERB_SLOW => {
            if version < TRACE_VERSION {
                return Err(WireError::Malformed(format!(
                    "SLOW verb requires protocol version {TRACE_VERSION}, \
                     frame is version {version}"
                )));
            }
            Request::SlowLog
        }
        VERB_INSPECT => {
            if version < REQUEST_ID_VERSION {
                return Err(WireError::Malformed(format!(
                    "INSPECT verb requires protocol version {REQUEST_ID_VERSION}, \
                     frame is version {version}"
                )));
            }
            Request::Inspect
        }
        VERB_HEALTH => {
            if version < REQUEST_ID_VERSION {
                return Err(WireError::Malformed(format!(
                    "HEALTH verb requires protocol version {REQUEST_ID_VERSION}, \
                     frame is version {version}"
                )));
            }
            Request::Health
        }
        VERB_DRAIN => {
            if version < REQUEST_ID_VERSION {
                return Err(WireError::Malformed(format!(
                    "DRAIN verb requires protocol version {REQUEST_ID_VERSION}, \
                     frame is version {version}"
                )));
            }
            let addr = r.str(4096)?;
            let drained = r.u8()? != 0;
            Request::Drain { addr, drained }
        }
        VERB_RELOAD => {
            let dir = r.str(4096)?;
            Request::Reload {
                dir: if dir.is_empty() { None } else { Some(dir) },
            }
        }
        VERB_APPLY => {
            // Version-gated: an APPLY can only arrive in a frame that
            // promises V3 semantics; in an older frame the byte is junk.
            if version < 3 {
                return Err(WireError::Malformed(format!(
                    "APPLY verb requires protocol version 3, frame is version {version}"
                )));
            }
            // Tail presence spells the routed form (V5 stamps it, but
            // presence is what matters — mirroring the pre-V5 ext rule).
            let shard = if r.has_remaining() {
                Some(r.u32()?)
            } else {
                None
            };
            Request::ApplyDelta { shard }
        }
        VERB_BATCH => {
            if version < BATCH_VERSION {
                return Err(WireError::Malformed(format!(
                    "BATCH verb requires protocol version {BATCH_VERSION}, \
                     frame is version {version}"
                )));
            }
            let metric = r.str(64)?;
            let tau = take_tau(&mut r)?;
            let policy = take_policy(&mut r)?;
            let mode = match r.u8()? {
                0 => BatchMode::Search(take_threshold(&mut r)?),
                1 => BatchMode::Topk(r.u64()?),
                t => return Err(WireError::Malformed(format!("unknown batch mode tag {t}"))),
            };
            let dim = r.u32()?;
            if dim == 0 {
                return Err(WireError::Malformed("query dimension is zero".into()));
            }
            let n_columns = r.u32()? as usize;
            let mut columns = Vec::with_capacity(n_columns.min(1 << 16));
            for _ in 0..n_columns {
                let n = r.u32()? as usize;
                columns.push(r.f32_vec(n * dim as usize)?);
            }
            let ext = match r.u8()? {
                0 => None,
                1 => Some(take_query_ext(&mut r)?),
                t => return Err(WireError::Malformed(format!("unknown ext tag {t}"))),
            };
            let trace = if version >= TRACE_VERSION && r.has_remaining() {
                TraceLevel::from_u8(r.u8()?)
            } else {
                TraceLevel::Off
            };
            let request_id = if version >= REQUEST_ID_VERSION && r.has_remaining() {
                take_opt_u64(&mut r)?
            } else {
                None
            };
            Request::Batch(QueryBatch {
                metric,
                tau,
                policy,
                mode,
                dim,
                columns,
                ext,
                trace,
                request_id,
            })
        }
        VERB_SHUTDOWN => Request::Shutdown,
        v => return Err(WireError::Malformed(format!("unknown verb {v}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Encode a reply into a frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match reply {
        Reply::Info(info) => {
            w.u8(REPLY_INFO);
            w.u32(info.dim);
            w.u64(info.generation);
            w.u64(info.index_version);
            w.u32(info.partitions);
            w.u64(info.disk_bytes);
        }
        Reply::Hits(h) => {
            // Kind bytes escalate with content: V4 only when an EXPLAIN
            // report is present (answering a V6 request), V3 only when a
            // trace is (answering a V5 request), V2 only when the
            // extension is (answering a V2+ request) — old clients never
            // receive a kind they cannot parse.
            if let Some(explain) = &h.explain {
                w.u8(REPLY_HITS_V4);
                put_hits_body(&mut w, h, true);
                match &h.trace {
                    None => w.u8(0),
                    Some(t) => {
                        w.u8(1);
                        put_trace(&mut w, t);
                    }
                }
                put_explain(&mut w, explain);
            } else if let Some(trace) = &h.trace {
                w.u8(REPLY_HITS_V3);
                put_hits_body(&mut w, h, true);
                put_trace(&mut w, trace);
            } else {
                w.u8(if h.ext.is_some() {
                    REPLY_HITS_V2
                } else {
                    REPLY_HITS
                });
                put_hits_body(&mut w, h, false);
            }
        }
        Reply::HitsBatch(items) => {
            // The V2 batch kind is only used when some entry carries a
            // trace — again, never sent to a client that didn't ask.
            if items.iter().any(|h| h.trace.is_some()) {
                w.u8(REPLY_HITS_BATCH_V2);
                w.u32(items.len() as u32);
                for h in items {
                    put_hits_body(&mut w, h, true);
                    match &h.trace {
                        None => w.u8(0),
                        Some(t) => {
                            w.u8(1);
                            put_trace(&mut w, t);
                        }
                    }
                }
            } else {
                w.u8(REPLY_HITS_BATCH);
                w.u32(items.len() as u32);
                for h in items {
                    put_hits_body(&mut w, h, true);
                }
            }
        }
        Reply::Stats { text } => {
            w.u8(REPLY_STATS);
            w.str(text);
        }
        Reply::Reloaded {
            generation,
            partitions,
        } => {
            w.u8(REPLY_RELOADED);
            w.u64(*generation);
            w.u32(*partitions);
        }
        Reply::Applied {
            generation,
            delta_columns,
            tombstones,
        } => {
            w.u8(REPLY_APPLIED);
            w.u64(*generation);
            w.u64(*delta_columns);
            w.u64(*tombstones);
        }
        Reply::ShuttingDown => w.u8(REPLY_SHUTTING_DOWN),
        Reply::Busy => w.u8(REPLY_BUSY),
        Reply::Shed => w.u8(REPLY_SHED),
        Reply::DeadlineExpired { waited_ms } => {
            w.u8(REPLY_DEADLINE_EXPIRED);
            w.u64(*waited_ms);
        }
        Reply::Err { message } => {
            w.u8(REPLY_ERR);
            w.str(message);
        }
    }
    w.0
}

/// Decode a frame payload into a reply.
pub fn decode_reply(payload: &[u8]) -> WireResult<Reply> {
    let mut r = ByteReader::new(payload);
    let reply = match r.u8()? {
        REPLY_INFO => Reply::Info(InfoReply {
            dim: r.u32()?,
            generation: r.u64()?,
            index_version: r.u64()?,
            partitions: r.u32()?,
            disk_bytes: r.u64()?,
        }),
        kind @ (REPLY_HITS | REPLY_HITS_V2) => {
            Reply::Hits(take_hits_body(&mut r, Some(kind == REPLY_HITS_V2))?)
        }
        REPLY_HITS_V3 => {
            let mut h = take_hits_body(&mut r, None)?;
            h.trace = Some(take_trace(&mut r)?);
            Reply::Hits(h)
        }
        REPLY_HITS_V4 => {
            let mut h = take_hits_body(&mut r, None)?;
            if r.u8()? != 0 {
                h.trace = Some(take_trace(&mut r)?);
            }
            h.explain = Some(Box::new(take_explain(&mut r)?));
            Reply::Hits(h)
        }
        REPLY_HITS_BATCH => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(take_hits_body(&mut r, None)?);
            }
            Reply::HitsBatch(items)
        }
        REPLY_HITS_BATCH_V2 => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let mut h = take_hits_body(&mut r, None)?;
                if r.u8()? != 0 {
                    h.trace = Some(take_trace(&mut r)?);
                }
                items.push(h);
            }
            Reply::HitsBatch(items)
        }
        REPLY_STATS => Reply::Stats {
            text: r.str(1 << 20)?,
        },
        REPLY_RELOADED => Reply::Reloaded {
            generation: r.u64()?,
            partitions: r.u32()?,
        },
        REPLY_APPLIED => Reply::Applied {
            generation: r.u64()?,
            delta_columns: r.u64()?,
            tombstones: r.u64()?,
        },
        REPLY_SHUTTING_DOWN => Reply::ShuttingDown,
        REPLY_BUSY => Reply::Busy,
        REPLY_SHED => Reply::Shed,
        REPLY_DEADLINE_EXPIRED => Reply::DeadlineExpired {
            waited_ms: r.u64()?,
        },
        REPLY_ERR => Reply::Err {
            message: r.str(1 << 16)?,
        },
        k => return Err(WireError::Malformed(format!("unknown reply kind {k}"))),
    };
    r.finish()?;
    Ok(reply)
}

// ---------------------------------------------------------------------------
// Cache fingerprinting
// ---------------------------------------------------------------------------

struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Cache key for a query against one snapshot generation: FNV-1a over the
/// request kind, metric, τ, T (or k), the raw query bits, and the
/// generation. The execution policy is deliberately *excluded* — results
/// are policy-independent by the crate-wide determinism contract, so a
/// sequential and a parallel request share one cache line.
pub fn query_fingerprint(req: &Request, generation: u64) -> Option<u64> {
    let (kind, query, discriminator) = match req {
        Request::Search { query, t } => {
            let mut w = ByteWriter::new();
            put_threshold(&mut w, *t);
            (1u8, query, w.0)
        }
        Request::Topk { query, k } => (2u8, query, k.to_le_bytes().to_vec()),
        _ => return None,
    };
    let mut h = Fnv64::new();
    h.update(&[kind]);
    h.update(query.metric.as_bytes());
    let mut w = ByteWriter::new();
    put_tau(&mut w, query.tau);
    h.update(&w.0);
    h.update(&discriminator);
    h.update(&query.dim.to_le_bytes());
    for v in &query.vectors {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.update(&generation.to_le_bytes());
    Some(h.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> QueryPayload {
        QueryPayload {
            metric: "euclidean".into(),
            tau: Tau::Ratio(0.06),
            policy: ExecPolicy::Parallel { threads: 4 },
            dim: 3,
            vectors: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            ext: None,
            trace: TraceLevel::Off,
            request_id: None,
            explain: false,
        }
    }

    fn sample_ext() -> QueryExt {
        QueryExt {
            flags: LemmaFlags::without_lemma34(),
            quick_browse: false,
            max_distance_computations: Some(12345),
            deadline_ms: Some(250),
        }
    }

    #[test]
    fn request_roundtrip_all_verbs() {
        let requests = [
            Request::Info,
            Request::Search {
                query: sample_query(),
                t: JoinThreshold::Ratio(0.5),
            },
            Request::Search {
                query: sample_query(),
                t: JoinThreshold::Count(7),
            },
            Request::Search {
                query: QueryPayload {
                    ext: Some(sample_ext()),
                    ..sample_query()
                },
                t: JoinThreshold::Count(7),
            },
            Request::Topk {
                query: sample_query(),
                k: 10,
            },
            Request::Topk {
                query: QueryPayload {
                    ext: Some(QueryExt::default()),
                    ..sample_query()
                },
                k: 10,
            },
            Request::Stats,
            Request::Reload { dir: None },
            Request::Reload {
                dir: Some("/tmp/idx".into()),
            },
            Request::ApplyDelta { shard: None },
            Request::ApplyDelta { shard: Some(2) },
            Request::Shutdown,
        ];
        for req in &requests {
            let bytes = encode_request(req);
            let back = decode_request(&bytes).unwrap();
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn version_gating_is_backward_compatible() {
        // An extension-less query encodes a V1 frame, byte-identical to
        // what a pre-extension client produces — old servers still parse.
        let v1 = encode_request(&Request::Search {
            query: sample_query(),
            t: JoinThreshold::Count(3),
        });
        assert_eq!(v1[4], MIN_PROTOCOL_VERSION);
        // A V2 frame is the V1 layout plus the trailing extension.
        let v2 = encode_request(&Request::Search {
            query: QueryPayload {
                ext: Some(sample_ext()),
                ..sample_query()
            },
            t: JoinThreshold::Count(3),
        });
        assert_eq!(v2[4], QUERY_EXT_VERSION);
        assert_eq!(&v2[5..v1.len()], &v1[5..], "V1 layout must be a prefix");
        // The extension sits at the frame tail and its presence is "bytes
        // remain" — a V4 stamp can come from the `Fixed` policy tag alone,
        // so the version byte does not promise an extension. Truncating
        // the whole extension off therefore yields the extension-less
        // request; cutting it mid-field is still malformed.
        let mut truncated = v2.clone();
        truncated.truncate(v1.len());
        assert_eq!(
            decode_request(&truncated).unwrap(),
            Request::Search {
                query: sample_query(),
                t: JoinThreshold::Count(3),
            }
        );
        let mut partial = v2.clone();
        partial.truncate(v1.len() + 1);
        assert!(decode_request(&partial).is_err());
        assert!(decode_request(&v1).is_ok());
    }

    #[test]
    fn apply_verb_is_version_gated() {
        let bytes = encode_request(&Request::ApplyDelta { shard: None });
        assert_eq!(bytes[4], 3, "APPLY frames are V3");
        assert_eq!(
            decode_request(&bytes).unwrap(),
            Request::ApplyDelta { shard: None }
        );
        // The same verb byte inside an older frame is junk, not a silent
        // downgrade: a V2 peer never legitimately produced it.
        for old in [1u8, 2] {
            let mut downgraded = bytes.clone();
            downgraded[4] = old;
            assert!(decode_request(&downgraded).is_err(), "version {old}");
        }
    }

    #[test]
    fn routed_apply_rides_a_version_tail() {
        // The bare form stays the historical frame: magic + version 3 +
        // verb, nothing else — un-upgraded daemons keep decoding it.
        let bare = encode_request(&Request::ApplyDelta { shard: None });
        assert_eq!(bare.len(), 6, "bare APPLY must stay the 6-byte frame");
        // The routed form stamps V5 and appends the shard index; it
        // round-trips, and truncating the tail off yields the bare form
        // (tail presence is the discriminator, as with the V2 ext).
        let routed = encode_request(&Request::ApplyDelta { shard: Some(7) });
        assert_eq!(routed[4], TRACE_VERSION, "routed APPLY frames are V5");
        assert_eq!(&routed[5..6], &bare[5..6], "same verb byte");
        assert_eq!(
            decode_request(&routed).unwrap(),
            Request::ApplyDelta { shard: Some(7) }
        );
        let mut truncated = routed.clone();
        truncated.truncate(6);
        assert!(matches!(
            decode_request(&truncated).unwrap(),
            Request::ApplyDelta { shard: None }
        ));
        // A tail cut mid-field is malformed, not silently bare.
        let mut partial = routed.clone();
        partial.truncate(8);
        assert!(decode_request(&partial).is_err());
    }

    fn sample_batch(ext: Option<QueryExt>) -> QueryBatch {
        QueryBatch {
            metric: "euclidean".into(),
            tau: Tau::Ratio(0.06),
            policy: ExecPolicy::Parallel { threads: 4 },
            mode: BatchMode::Search(JoinThreshold::Count(3)),
            dim: 3,
            columns: vec![vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], vec![0.7, 0.8, 0.9]],
            ext,
            trace: TraceLevel::Off,
            request_id: None,
        }
    }

    #[test]
    fn batch_verb_roundtrips_and_is_version_gated() {
        for batch in [
            sample_batch(None),
            sample_batch(Some(sample_ext())),
            QueryBatch {
                mode: BatchMode::Topk(5),
                columns: Vec::new(),
                ..sample_batch(None)
            },
        ] {
            let req = Request::Batch(batch);
            let bytes = encode_request(&req);
            assert_eq!(bytes[4], BATCH_VERSION, "BATCH frames are V4");
            assert_eq!(decode_request(&bytes).unwrap(), req);
            // The verb byte inside an older frame is junk, not a silent
            // downgrade.
            for old in [1u8, 2, 3] {
                let mut downgraded = bytes.clone();
                downgraded[4] = old;
                assert!(decode_request(&downgraded).is_err(), "version {old}");
            }
        }
    }

    #[test]
    fn fixed_policy_roundtrips_as_v4() {
        let query = QueryPayload {
            policy: ExecPolicy::Fixed { threads: 6 },
            ..sample_query()
        };
        let req = Request::Search {
            query,
            t: JoinThreshold::Count(3),
        };
        let bytes = encode_request(&req);
        assert_eq!(bytes[4], BATCH_VERSION, "fixed-policy frames are V4");
        assert_eq!(decode_request(&bytes).unwrap(), req);
        let batch = Request::Batch(QueryBatch {
            policy: ExecPolicy::Fixed { threads: 2 },
            ..sample_batch(None)
        });
        let bytes = encode_request(&batch);
        assert_eq!(decode_request(&bytes).unwrap(), batch);
    }

    #[test]
    fn traced_requests_roundtrip_as_v5() {
        for trace in [TraceLevel::Phases, TraceLevel::Detail] {
            for ext in [None, Some(sample_ext())] {
                let req = Request::Search {
                    query: QueryPayload {
                        ext,
                        trace,
                        ..sample_query()
                    },
                    t: JoinThreshold::Count(3),
                };
                let bytes = encode_request(&req);
                assert_eq!(bytes[4], TRACE_VERSION, "traced frames are V5");
                assert_eq!(decode_request(&bytes).unwrap(), req);
                let req = Request::Topk {
                    query: QueryPayload {
                        ext,
                        trace,
                        ..sample_query()
                    },
                    k: 9,
                };
                let bytes = encode_request(&req);
                assert_eq!(bytes[4], TRACE_VERSION);
                assert_eq!(decode_request(&bytes).unwrap(), req);
            }
        }
        // An untraced request never pays the V5 stamp: the frame stays
        // bit-identical to what a pre-trace client emits.
        let off = encode_request(&Request::Search {
            query: sample_query(),
            t: JoinThreshold::Count(3),
        });
        assert_eq!(off[4], MIN_PROTOCOL_VERSION);
    }

    #[test]
    fn traced_batch_roundtrips_as_v5() {
        let batch = QueryBatch {
            trace: TraceLevel::Detail,
            ..sample_batch(Some(sample_ext()))
        };
        let req = Request::Batch(batch);
        let bytes = encode_request(&req);
        assert_eq!(bytes[4], TRACE_VERSION, "traced BATCH frames are V5");
        assert_eq!(decode_request(&bytes).unwrap(), req);
        // Untraced batches keep the V4 stamp (checked in the V4 test);
        // a V5 batch with no trailing trace byte decodes as Off.
        let untraced = Request::Batch(sample_batch(None));
        let mut bytes = encode_request(&untraced);
        bytes[4] = TRACE_VERSION;
        assert_eq!(decode_request(&bytes).unwrap(), untraced);
    }

    #[test]
    fn metrics_and_slow_verbs_are_version_gated() {
        for req in [Request::Metrics, Request::SlowLog] {
            let bytes = encode_request(&req);
            assert_eq!(bytes[4], TRACE_VERSION, "METRICS/SLOW frames are V5");
            assert_eq!(decode_request(&bytes).unwrap(), req);
            // The same verb byte inside an older frame is junk, not a
            // silent downgrade.
            for old in [1u8, 2, 3, 4] {
                let mut downgraded = bytes.clone();
                downgraded[4] = old;
                assert!(decode_request(&downgraded).is_err(), "version {old}");
            }
        }
    }

    fn sample_trace() -> QueryTrace {
        QueryTrace::new(
            TraceSpan::new("query", 0, 120)
                .counter("distance_computations", 41)
                .child(TraceSpan::new("map", 0, 30))
                .child(TraceSpan::new("verify", 30, 80).counter("verify_batches", 2)),
        )
    }

    #[test]
    fn traced_replies_roundtrip() {
        let solo = Reply::Hits(HitsReply {
            generation: 3,
            cached: false,
            hits: Vec::new(),
            ext: Some(HitsExt {
                outcome: QueryOutcome::Exact,
                distance_computations: 41,
            }),
            trace: Some(sample_trace()),
            explain: None,
        });
        let bytes = encode_reply(&solo);
        assert_eq!(decode_reply(&bytes).unwrap(), solo);
        // A batch where only some entries carry a trace still roundtrips
        // exactly (the V2 batch kind flags presence per entry).
        let batch = Reply::HitsBatch(vec![
            HitsReply {
                generation: 3,
                cached: false,
                hits: Vec::new(),
                ext: None,
                trace: Some(sample_trace()),
                explain: None,
            },
            HitsReply {
                generation: 3,
                cached: true,
                hits: Vec::new(),
                ext: None,
                trace: None,
                explain: None,
            },
        ]);
        let bytes = encode_reply(&batch);
        assert_eq!(decode_reply(&bytes).unwrap(), batch);
    }

    #[test]
    fn trace_codec_rejects_absurd_depth() {
        // A span tree nested past MAX_TRACE_DEPTH encodes (the writer is
        // trusting) but must be rejected on decode — depth is attacker
        // controlled.
        let mut span = TraceSpan::new("leaf", 0, 1);
        for i in 0..=MAX_TRACE_DEPTH {
            span = TraceSpan::new(format!("level/{i}"), 0, 1).child(span);
        }
        let reply = Reply::Hits(HitsReply {
            generation: 1,
            cached: false,
            hits: Vec::new(),
            ext: None,
            trace: Some(QueryTrace::new(span)),
            explain: None,
        });
        let bytes = encode_reply(&reply);
        assert!(matches!(decode_reply(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn fingerprint_ignores_trace_level() {
        // A traced query must share its cache line with the untraced
        // twin: tracing never changes the answer, only the envelope.
        let fp = |trace| {
            query_fingerprint(
                &Request::Topk {
                    query: QueryPayload {
                        trace,
                        ..sample_query()
                    },
                    k: 10,
                },
                1,
            )
            .unwrap()
        };
        assert_eq!(fp(TraceLevel::Off), fp(TraceLevel::Detail));
    }

    #[test]
    fn reply_roundtrip_all_kinds() {
        let replies = [
            Reply::Info(InfoReply {
                dim: 64,
                generation: 3,
                index_version: 2,
                partitions: 4,
                disk_bytes: 123456,
            }),
            Reply::Hits(HitsReply {
                generation: 1,
                cached: true,
                hits: vec![WireHit {
                    external_id: 42,
                    table_name: "tab".into(),
                    column_name: "col".into(),
                    match_count: 9,
                }],
                ext: None,
                trace: None,
                explain: None,
            }),
            Reply::Hits(HitsReply {
                generation: 4,
                cached: false,
                hits: Vec::new(),
                ext: Some(HitsExt {
                    outcome: QueryOutcome::Exceeded(Exceeded::DistanceComputations),
                    distance_computations: 777,
                }),
                trace: None,
                explain: None,
            }),
            Reply::HitsBatch(vec![
                HitsReply {
                    generation: 2,
                    cached: false,
                    hits: vec![WireHit {
                        external_id: 7,
                        table_name: "t".into(),
                        column_name: "c".into(),
                        match_count: 3,
                    }],
                    ext: None,
                    trace: None,
                    explain: None,
                },
                HitsReply {
                    generation: 2,
                    cached: true,
                    hits: Vec::new(),
                    ext: Some(HitsExt {
                        outcome: QueryOutcome::Exact,
                        distance_computations: 12,
                    }),
                    trace: None,
                    explain: None,
                },
            ]),
            Reply::Stats {
                text: "a=1\nb=2\n".into(),
            },
            Reply::Reloaded {
                generation: 2,
                partitions: 3,
            },
            Reply::Applied {
                generation: 5,
                delta_columns: 7,
                tombstones: 2,
            },
            Reply::ShuttingDown,
            Reply::Busy,
            Reply::Shed,
            Reply::DeadlineExpired { waited_ms: 1500 },
            Reply::Err {
                message: "nope".into(),
            },
        ];
        for reply in &replies {
            let bytes = encode_reply(reply);
            let back = decode_reply(&bytes).unwrap();
            assert_eq!(&back, reply);
        }
    }

    #[test]
    fn frame_roundtrip_over_a_pipe() {
        let payload = encode_request(&Request::Info);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, payload);
        // A clean EOF after the frame reads as None, not an error.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_rejected() {
        let mut giant = Vec::new();
        giant.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(giant)),
            Err(WireError::Malformed(_))
        ));
        let mut short = Vec::new();
        short.extend_from_slice(&100u32.to_le_bytes());
        short.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(short)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_request(b"JUNKxxxx").is_err());
        // Right magic, wrong version.
        let mut bytes = encode_request(&Request::Info);
        bytes[4] = 99;
        assert!(decode_request(&bytes).is_err());
        // Trailing bytes after a valid request.
        let mut bytes = encode_request(&Request::Info);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
        assert!(decode_reply(&[77]).is_err());
    }

    #[test]
    fn fingerprint_sensitivity() {
        let req = |tau, k| Request::Topk {
            query: QueryPayload {
                tau,
                ..sample_query()
            },
            k,
        };
        let base = query_fingerprint(&req(Tau::Ratio(0.06), 10), 1).unwrap();
        // Same request, same generation: stable.
        assert_eq!(
            base,
            query_fingerprint(&req(Tau::Ratio(0.06), 10), 1).unwrap()
        );
        // Any keyed field changing changes the fingerprint.
        assert_ne!(
            base,
            query_fingerprint(&req(Tau::Ratio(0.07), 10), 1).unwrap()
        );
        assert_ne!(
            base,
            query_fingerprint(&req(Tau::Ratio(0.06), 11), 1).unwrap()
        );
        assert_ne!(
            base,
            query_fingerprint(&req(Tau::Ratio(0.06), 10), 2).unwrap()
        );
        // The policy is *not* keyed: results are policy-independent.
        let mut q = sample_query();
        q.policy = ExecPolicy::Sequential;
        let seq = query_fingerprint(&Request::Topk { query: q, k: 10 }, 1).unwrap();
        assert_eq!(base, seq);
        // Non-query verbs have no fingerprint.
        assert!(query_fingerprint(&Request::Stats, 1).is_none());
    }

    #[test]
    fn correlated_requests_roundtrip_as_v6() {
        // Any combination of request id and explain rides the V6 tail,
        // with or without the V2 ext and V5 trace sitting before it.
        for (request_id, explain) in [(Some(0xDEAD_BEEF), false), (None, true), (Some(7), true)] {
            for ext in [None, Some(sample_ext())] {
                for trace in [TraceLevel::Off, TraceLevel::Detail] {
                    let query = QueryPayload {
                        ext,
                        trace,
                        request_id,
                        explain,
                        ..sample_query()
                    };
                    let req = Request::Search {
                        query: query.clone(),
                        t: JoinThreshold::Count(3),
                    };
                    let bytes = encode_request(&req);
                    assert_eq!(bytes[4], REQUEST_ID_VERSION, "correlated frames are V6");
                    assert_eq!(decode_request(&bytes).unwrap(), req);
                    let req = Request::Topk { query, k: 4 };
                    let bytes = encode_request(&req);
                    assert_eq!(bytes[4], REQUEST_ID_VERSION);
                    assert_eq!(decode_request(&bytes).unwrap(), req);
                }
            }
        }
        // An uncorrelated, unexplained query never pays the V6 stamp —
        // the frame stays bit-identical to what an older client emits.
        let plain = encode_request(&Request::Search {
            query: sample_query(),
            t: JoinThreshold::Count(3),
        });
        assert_eq!(plain[4], MIN_PROTOCOL_VERSION);
    }

    #[test]
    fn correlated_batch_roundtrips_as_v6() {
        let batch = QueryBatch {
            request_id: Some(0xABCD),
            ..sample_batch(Some(sample_ext()))
        };
        let req = Request::Batch(batch);
        let bytes = encode_request(&req);
        assert_eq!(
            bytes[4], REQUEST_ID_VERSION,
            "correlated BATCH frames are V6"
        );
        assert_eq!(decode_request(&bytes).unwrap(), req);
        // Uncorrelated batches keep their old stamp; a V6 batch with no
        // trailing id decodes as None.
        let plain = Request::Batch(sample_batch(None));
        let mut bytes = encode_request(&plain);
        assert_eq!(bytes[4], BATCH_VERSION);
        bytes[4] = REQUEST_ID_VERSION;
        assert_eq!(decode_request(&bytes).unwrap(), plain);
    }

    #[test]
    fn inspect_health_drain_verbs_are_version_gated() {
        let requests = [
            Request::Inspect,
            Request::Health,
            Request::Drain {
                addr: "127.0.0.1:7878".into(),
                drained: true,
            },
            Request::Drain {
                addr: "127.0.0.1:7878".into(),
                drained: false,
            },
        ];
        for req in &requests {
            let bytes = encode_request(req);
            assert_eq!(
                bytes[4], REQUEST_ID_VERSION,
                "INSPECT/HEALTH/DRAIN frames are V6"
            );
            assert_eq!(&decode_request(&bytes).unwrap(), req);
            // The same verb byte inside an older frame is junk, not a
            // silent downgrade.
            for old in [1u8, 2, 3, 4, 5] {
                let mut downgraded = bytes.clone();
                downgraded[4] = old;
                assert!(decode_request(&downgraded).is_err(), "version {old}");
            }
        }
    }

    #[test]
    fn fingerprint_ignores_request_id_and_explain() {
        // A correlated or explained query must share its cache line with
        // the plain twin: the id and the report never change the answer.
        let fp = |request_id, explain| {
            query_fingerprint(
                &Request::Topk {
                    query: QueryPayload {
                        request_id,
                        explain,
                        ..sample_query()
                    },
                    k: 10,
                },
                1,
            )
            .unwrap()
        };
        assert_eq!(fp(None, false), fp(Some(42), false));
        assert_eq!(fp(None, false), fp(None, true));
        assert_eq!(fp(None, false), fp(Some(42), true));
    }

    fn sample_explain() -> ExplainReport {
        ExplainReport {
            mode: "topk".into(),
            stages: vec![FunnelStage {
                name: "block".into(),
                unit: "pairs".into(),
                input: 100,
                output: 60,
                pruned: vec![("lemma3/4".into(), 40)],
            }],
            decisions: vec!["quick_browse=off seeded_pairs=0".into()],
            topk: Some(TopkExplain {
                seed: Some(5),
                survivors: 12,
                rounds: vec![TopkRound {
                    bar: Some(5),
                    batch: 4,
                    pruned: 2,
                }],
                pruned_columns: vec![(3, 4)],
                suffix_stop: true,
            }),
        }
    }

    #[test]
    fn explained_replies_roundtrip() {
        // Explain alone, and explain + trace (the V4 reply kind carries
        // both behind a presence byte).
        for trace in [None, Some(sample_trace())] {
            let reply = Reply::Hits(HitsReply {
                generation: 9,
                cached: false,
                hits: vec![WireHit {
                    external_id: 1,
                    table_name: "t".into(),
                    column_name: "c".into(),
                    match_count: 2,
                }],
                ext: Some(HitsExt {
                    outcome: QueryOutcome::Exact,
                    distance_computations: 10,
                }),
                trace,
                explain: Some(Box::new(sample_explain())),
            });
            let bytes = encode_reply(&reply);
            assert_eq!(decode_reply(&bytes).unwrap(), reply);
        }
    }

    #[test]
    fn explain_codec_rejects_absurd_cardinality() {
        // The writer is trusting, the reader is not: a report with more
        // stages than MAX_EXPLAIN_STAGES encodes but must not decode.
        let mut report = sample_explain();
        report.topk = None;
        report.stages = (0..=MAX_EXPLAIN_STAGES)
            .map(|i| FunnelStage {
                name: format!("stage/{i}"),
                unit: "rows".into(),
                input: 1,
                output: 1,
                pruned: Vec::new(),
            })
            .collect();
        let reply = Reply::Hits(HitsReply {
            generation: 1,
            cached: false,
            hits: Vec::new(),
            ext: None,
            trace: None,
            explain: Some(Box::new(report)),
        });
        let bytes = encode_reply(&reply);
        assert!(matches!(decode_reply(&bytes), Err(WireError::Malformed(_))));
    }
}
