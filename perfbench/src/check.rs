//! The correctness gate: every reply is compared with an in-process
//! answer, a seeded sample of those with `pexeso_core::oracle`, and the
//! ingest workload's replies with the write timeline.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Mutex;

use pexeso_core::column::ColumnSet;
use pexeso_core::config::IndexOptions;
use pexeso_core::metric::Euclidean;
use pexeso_core::oracle;
use pexeso_core::query::{Query, QueryMode, QueryResponse, Queryable};
use pexeso_core::search::PexesoIndex;
use pexeso_core::vector::VectorStore;
use pexeso_serve::ServeClient;

use crate::deploy::{EmbeddedColumn, Res};
use crate::load::{Pool, Sample, WriteKind, WriterLog};
use crate::util::Rng;

/// `(external id, match count)` per hit, in contract order.
pub type Hits = Vec<(u64, u32)>;

/// Whether two answers to `query` agree under the result contract:
/// top-k rankings carry exact counts and must be identical; threshold
/// hits carry lower bounds (verification stops once a column reaches
/// `T`), so they must name the same columns, each with a count of at
/// least `T`.
pub fn same_answer(query: &Query, query_len: usize, a: &Hits, b: &Hits) -> bool {
    match query.mode {
        QueryMode::Topk(_) => a == b,
        QueryMode::Threshold(t) => {
            let t_abs = t.resolve(query_len).unwrap_or(usize::MAX);
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1 as usize >= t_abs && y.1 as usize >= t_abs)
        }
    }
}

pub fn hits_of(resp: &QueryResponse) -> Hits {
    resp.hits
        .iter()
        .map(|h| (h.external_id, h.match_count))
        .collect()
}

/// Answers of `backend` for the pool entries `wanted`, on `threads` threads.
pub fn references(
    backend: &(dyn Queryable + Sync),
    query: &Query,
    pool: &Pool,
    wanted: &[usize],
    threads: usize,
) -> Res<HashMap<usize, Hits>> {
    let out = Mutex::new(HashMap::new());
    let err = Mutex::new(None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&qi) = wanted.get(i) else { break };
                match backend.execute(query, &pool.get(qi)) {
                    Ok(r) if r.exact() => {
                        out.lock().expect("refs").insert(qi, hits_of(&r));
                    }
                    Ok(_) => *err.lock().expect("err") = Some("reference not exact".to_string()),
                    Err(e) => *err.lock().expect("err") = Some(format!("reference: {e}")),
                }
            });
        }
    });
    if let Some(e) = err.into_inner().expect("err") {
        return Err(e);
    }
    Ok(out.into_inner().expect("refs"))
}

/// The brute-force answer of `pexeso_core::oracle` over `columns`, in
/// the same contract order the backends use.
pub fn oracle_hits(columns: &ColumnSet, query: &Query, q: &VectorStore) -> Res<Hits> {
    let ext = |c: pexeso_core::column::ColumnId| columns.columns()[c.0 as usize].external_id;
    let hits = match query.mode {
        QueryMode::Threshold(t) => {
            let mut h: Hits = oracle::threshold_search(columns, &Euclidean, q, query.tau, t, None)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|h| (ext(h.column), h.match_count))
                .collect();
            h.sort_unstable();
            h
        }
        QueryMode::Topk(k) => {
            let counts = oracle::match_counts(columns, &Euclidean, q, query.tau, None)
                .map_err(|e| e.to_string())?;
            let mut h: Hits = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (columns.columns()[i].external_id, c))
                .collect();
            h.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            h.truncate(k);
            h
        }
    };
    Ok(hits)
}

/// Check a seeded sample of `n` pool entries against the oracle; returns
/// the number checked and the number that disagreed.
pub fn oracle_sample(
    columns: &ColumnSet,
    query: &Query,
    pool: &Pool,
    refs: &HashMap<usize, Hits>,
    n: usize,
    seed: u64,
) -> Res<(usize, usize)> {
    let mut keys: Vec<usize> = refs.keys().copied().collect();
    keys.sort_unstable();
    let mut rng = Rng::new(seed ^ 0x0ac1e);
    let mut bad = 0;
    let mut checked = 0;
    for _ in 0..n.min(keys.len()) {
        let qi = keys.swap_remove(rng.below(keys.len()));
        checked += 1;
        let store = pool.get(qi);
        let exact = oracle_hits(columns, query, &store)?;
        let bounded = exact.iter().zip(&refs[&qi]).all(|(o, r)| r.1 <= o.1);
        if !same_answer(query, store.len(), &exact, &refs[&qi]) || !bounded {
            eprintln!(
                "oracle disagrees with the reference on pool query {qi}: {exact:?} vs {:?}",
                refs[&qi]
            );
            bad += 1;
        }
    }
    Ok((checked, bad))
}

/// Compare every good sample with its reference; returns wrong replies.
pub fn check_exact(
    samples: &[Sample],
    refs: &HashMap<usize, Hits>,
    query: &Query,
    pool: &Pool,
) -> usize {
    samples
        .iter()
        .filter(|s| s.good())
        .filter(|s| {
            let got = s.hits.as_ref().expect("good sample");
            let ok = same_answer(query, pool.get(s.qi).len(), got, &refs[&s.qi]);
            if !ok {
                eprintln!("wrong reply for pool query {} at {:.3}s", s.qi, s.sent);
            }
            !ok
        })
        .count()
}

/// The ingest workload's timeline: when each table became visible and
/// when it was dropped, in seconds since the run origin.
struct Life {
    /// Write start and APPLY return of the ingest (base tables: always).
    born: Option<(f64, f64)>,
    /// Write start and APPLY return of the drop, if any.
    dropped: Option<(f64, f64)>,
}

pub struct IngestCheck<'a> {
    pub base: &'a ColumnSet,
    pub base_refs: &'a HashMap<usize, Hits>,
    pub queries: &'a Pool,
    pub ingest_pool: &'a [EmbeddedColumn],
    pub writer: &'a WriterLog,
    pub query: &'a Query,
}

impl IngestCheck<'_> {
    fn lives(&self) -> (HashMap<u64, Life>, HashMap<u64, usize>) {
        let mut by_name: HashMap<String, u64> = self
            .base
            .columns()
            .iter()
            .map(|c| (c.table_name.clone(), c.external_id))
            .collect();
        let mut lives: HashMap<u64, Life> = by_name
            .values()
            .map(|&e| {
                (
                    e,
                    Life {
                        born: None,
                        dropped: None,
                    },
                )
            })
            .collect();
        let mut table_of = HashMap::new();
        for w in &self.writer.writes {
            if w.error.is_some() {
                continue;
            }
            match &w.kind {
                WriteKind::Ingest { table, external_id } => {
                    by_name.insert(self.ingest_pool[*table].name.clone(), *external_id);
                    table_of.insert(*external_id, *table);
                    lives.insert(
                        *external_id,
                        Life {
                            born: Some((w.start, w.applied)),
                            dropped: None,
                        },
                    );
                }
                WriteKind::Drop { names } => {
                    for name in names {
                        if let Some(l) = by_name.get(name).and_then(|e| lives.get_mut(e)) {
                            l.dropped = Some((w.start, w.applied));
                        }
                    }
                }
            }
        }
        (lives, table_of)
    }

    /// Exact match counts of pool query `qi` against every ingested table.
    fn ingested_counts(&self, qi: usize, table_of: &HashMap<u64, usize>) -> Res<HashMap<u64, u32>> {
        let mut set = ColumnSet::new(self.base.dim());
        let mut ids = Vec::new();
        for (&e, &t) in table_of {
            let col = &self.ingest_pool[t].store;
            set.add_column(&self.ingest_pool[t].name, "name", e, col.iter())
                .map_err(|e| e.to_string())?;
            ids.push(e);
        }
        if ids.is_empty() {
            return Ok(HashMap::new());
        }
        let counts = oracle::match_counts(
            &set,
            &Euclidean,
            &self.queries.get(qi),
            self.query.tau,
            None,
        )
        .map_err(|e| e.to_string())?;
        Ok(ids.into_iter().zip(counts).collect())
    }

    /// Check every good reader reply against the write timeline: an
    /// ingested table is returned, with a count between `T` and its exact
    /// count, once its ingest APPLY returned and never before its ingest
    /// started; no table is returned after its drop APPLY returned; base
    /// tables keep their reference membership. Returns the wrong replies.
    pub fn check_readers(&self, samples: &[Sample]) -> Res<usize> {
        let QueryMode::Threshold(t) = self.query.mode else {
            return Err("the ingest check expects threshold queries".into());
        };
        let (lives, table_of) = self.lives();
        let mut counts: HashMap<usize, HashMap<u64, u32>> = HashMap::new();
        let mut wrong = 0;
        for s in samples.iter().filter(|s| s.good()) {
            let ing = match counts.entry(s.qi) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(self.ingested_counts(s.qi, &table_of)?),
            };
            let t_abs = t
                .resolve(self.queries.get(s.qi).len())
                .map_err(|e| e.to_string())?;
            let base_ref: HashMap<u64, u32> = self.base_refs[&s.qi].iter().copied().collect();
            let got: HashMap<u64, u32> = s.hits.as_ref().expect("good").iter().copied().collect();
            let mut bad = Vec::new();
            for (&e, &c) in &got {
                let Some(life) = lives.get(&e) else {
                    bad.push(format!("unknown id {e}"));
                    continue;
                };
                if life.dropped.is_some_and(|(_, applied)| applied < s.sent) {
                    bad.push(format!("id {e} returned after its drop was applied"));
                }
                match life.born {
                    None if !base_ref.contains_key(&e) || (c as usize) < t_abs => {
                        bad.push(format!("base id {e} (count {c}) is not in the reference"))
                    }
                    Some((start, _)) if start > s.recv => {
                        bad.push(format!("id {e} returned before it was ingested"))
                    }
                    Some(_)
                        if ing.get(&e).is_none_or(|&exact| c > exact) || (c as usize) < t_abs =>
                    {
                        bad.push(format!("ingested id {e} count {c} is not a valid bound"))
                    }
                    _ => {}
                }
            }
            for (&e, life) in &lives {
                if got.contains_key(&e) {
                    continue;
                }
                let gone = life.dropped.is_some_and(|(start, _)| start < s.recv);
                let should = match life.born {
                    None => base_ref.contains_key(&e),
                    Some((_, applied)) => {
                        applied < s.sent && ing.get(&e).is_some_and(|&c| c as usize >= t_abs)
                    }
                };
                if should && !gone {
                    bad.push(format!("id {e} missing"));
                }
            }
            if !bad.is_empty() {
                eprintln!(
                    "wrong reply for pool query {} at {:.3}s: {}",
                    s.qi,
                    s.sent,
                    bad.join("; ")
                );
                wrong += 1;
            }
        }
        Ok(wrong)
    }

    /// After the run: every pool query against the daemon must equal an
    /// index built in-process over the live columns. Returns
    /// (queries checked, wrong).
    pub fn check_final(&self, client: &ServeClient) -> Res<(usize, usize)> {
        let (lives, table_of) = self.lives();
        let mut live = ColumnSet::new(self.base.dim());
        for c in self.base.columns() {
            if lives[&c.external_id].dropped.is_none() {
                let vecs = c
                    .vector_range()
                    .map(|v| self.base.store().get_raw(v as usize));
                live.add_column(&c.table_name, &c.column_name, c.external_id, vecs)
                    .map_err(|e| e.to_string())?;
            }
        }
        let mut ingested: Vec<(u64, usize)> = table_of.iter().map(|(&e, &t)| (e, t)).collect();
        ingested.sort_unstable();
        for (e, t) in ingested {
            if lives[&e].dropped.is_none() {
                let col = &self.ingest_pool[t];
                live.add_column(&col.name, "name", e, col.store.iter())
                    .map_err(|e| e.to_string())?;
            }
        }
        let index = PexesoIndex::build(live, Euclidean, IndexOptions::default())
            .map_err(|e| e.to_string())?;
        let mut wrong = 0;
        for qi in 0..self.queries.len() {
            let store = self.queries.get(qi);
            let want = hits_of(
                &index
                    .execute(self.query, &store)
                    .map_err(|e| e.to_string())?,
            );
            let got = client
                .execute_detailed(self.query, &store)
                .map(|(r, _)| hits_of(&r));
            if !got.is_ok_and(|g| same_answer(self.query, store.len(), &g, &want)) {
                eprintln!("final check: pool query {qi} differs from the live-column index");
                wrong += 1;
            }
        }
        Ok((self.queries.len(), wrong))
    }
}
