//! Property tests for the serve frame encoding of the unified query API:
//! any [`Query`] the builder can express survives the trip through
//! [`wire_request`] → `encode_request` → `decode_request` with every
//! criterion intact, [`query_from_wire`] turns the frame back into the
//! same query, and extension-less (V1) frames keep their layout.

use std::time::Duration;

use pexeso_core::config::{ExecPolicy, JoinThreshold, LemmaFlags, Tau};
use pexeso_core::query::{Query, QueryBudget, QueryMode};
use pexeso_core::trace::TraceLevel;
use pexeso_core::vector::VectorStore;
use pexeso_serve::protocol::{decode_request, encode_request, QueryExt, Request};
use pexeso_serve::server::clamp_policy;
use pexeso_serve::{query_from_wire, wire_request};
use proptest::prelude::*;

/// Deterministically build a `Query` from primitive proptest inputs,
/// covering both modes, both τ/T forms, every policy shape, all lemma
/// toggles, and every budget combination.
#[allow(clippy::too_many_arguments)]
fn make_query(
    topk: bool,
    tau_ratio: bool,
    tau: f32,
    t_count: bool,
    t: f64,
    k: usize,
    par: bool,
    threads: usize,
    lemma_mask: u8,
    quick_browse: bool,
    max_dist: u64,
    deadline_ms: u64,
) -> Query {
    let tau = if tau_ratio {
        Tau::Ratio(tau.clamp(0.0, 1.0))
    } else {
        Tau::Absolute(tau.abs())
    };
    let mut q = if topk {
        Query::topk(tau, k)
    } else if t_count {
        Query::threshold(tau, JoinThreshold::Count(t as usize))
    } else {
        Query::threshold(tau, JoinThreshold::Ratio(t.clamp(0.01, 1.0)))
    };
    q = q
        .with_flags(LemmaFlags {
            lemma1_vector_filter: lemma_mask & 1 != 0,
            lemma2_vector_match: lemma_mask & 2 != 0,
            lemma34_cell_filter: lemma_mask & 4 != 0,
            lemma56_cell_match: lemma_mask & 8 != 0,
        })
        .quick_browse(quick_browse)
        .with_policy(if par {
            ExecPolicy::Parallel { threads }
        } else {
            ExecPolicy::Sequential
        })
        .expect_metric("euclidean");
    if max_dist > 0 {
        q = q.with_max_distance_computations(max_dist);
    }
    if deadline_ms > 0 {
        q = q.with_deadline(Duration::from_millis(deadline_ms));
    }
    q
}

fn sample_store(dim: usize, n: usize) -> VectorStore {
    let mut store = VectorStore::new(dim);
    for i in 0..n {
        let v: Vec<f32> = (0..dim).map(|d| ((i * dim + d) as f32).sin()).collect();
        store.push(&v).unwrap();
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Query builder → wire request → frame bytes → request: lossless.
    #[test]
    fn query_roundtrips_through_frame_encoding(
        topk in 0u8..2,
        tau_ratio in 0u8..2,
        tau in 0.0f32..1.0,
        t_count in 0u8..2,
        t in 0.0f64..1.0,
        k in 0usize..100,
        par in 0u8..2,
        threads in 0usize..16,
        lemma_mask in 0u8..16,
        quick_browse in 0u8..2,
        max_dist in 0u64..1_000_000,
        deadline_ms in 0u64..10_000,
        dim in 1usize..8,
        n in 1usize..5,
    ) {
        let query = make_query(
            topk != 0,
            tau_ratio != 0,
            tau,
            t_count != 0,
            t * 100.0,
            k,
            par != 0,
            threads,
            lemma_mask,
            quick_browse != 0,
            max_dist,
            deadline_ms,
        );
        let store = sample_store(dim, n);
        let request = wire_request(&query, &store);
        let decoded = decode_request(&encode_request(&request)).unwrap();
        prop_assert_eq!(&decoded, &request);

        // Every builder criterion survives into the decoded frame.
        let (payload, decoded_mode) = match &decoded {
            Request::Search { query, t } => (query, QueryMode::Threshold(*t)),
            Request::Topk { query, k } => (query, QueryMode::Topk(*k as usize)),
            other => panic!("query verbs only, got {other:?}"),
        };
        prop_assert_eq!(decoded_mode, query.mode);
        prop_assert_eq!(payload.tau, query.tau);
        prop_assert_eq!(payload.policy, query.policy);
        prop_assert_eq!(payload.metric.as_str(), "euclidean");
        prop_assert_eq!(payload.dim as usize, store.dim());
        prop_assert_eq!(payload.vectors.len(), store.raw_data().len());
        let ext = payload.ext.as_ref().expect("unified requests carry the ext");
        prop_assert_eq!(ext.flags, query.options.flags);
        prop_assert_eq!(ext.quick_browse, query.options.quick_browse);
        prop_assert_eq!(
            ext.max_distance_computations,
            query.budget.max_distance_computations
        );
        prop_assert_eq!(
            ext.deadline_ms,
            query.budget.deadline.map(|d| d.as_millis() as u64)
        );
        // And the budget maps back exactly.
        let budget = QueryBudget {
            max_distance_computations: ext.max_distance_computations,
            deadline: ext.deadline_ms.map(Duration::from_millis),
        };
        prop_assert_eq!(budget, query.budget);
    }

    /// Query → wire request → query: [`query_from_wire`] inverts
    /// [`wire_request`] for every criterion the frame carries. The
    /// deadline comes back rounded up to whole milliseconds and the
    /// execution policy clamped to the server's thread ceiling; nothing
    /// else changes.
    #[test]
    fn wire_request_inverts_back_to_the_query(
        topk in 0u8..2,
        tau_ratio in 0u8..2,
        tau in 0.0f32..1.0,
        t_count in 0u8..2,
        t in 0.0f64..1.0,
        k in 0usize..100,
        policy_tag in 0u8..3,
        threads in 0usize..32,
        max_threads in 0usize..16,
        lemma_mask in 0u8..16,
        quick_browse in 0u8..2,
        max_dist in 0u64..1_000_000,
        deadline_us in 0u64..10_000_000,
        metric in 0u8..2,
        trace in 0u8..3,
        rid in 0u64..u64::MAX,
        explain in 0u8..2,
    ) {
        let mut query = make_query(
            topk != 0,
            tau_ratio != 0,
            tau,
            t_count != 0,
            t * 100.0,
            k,
            false,
            threads,
            lemma_mask,
            quick_browse != 0,
            max_dist,
            0,
        )
        .with_policy(match policy_tag {
            0 => ExecPolicy::Sequential,
            1 => ExecPolicy::Parallel { threads },
            _ => ExecPolicy::Fixed { threads },
        })
        .with_trace([TraceLevel::Off, TraceLevel::Phases, TraceLevel::Detail][trace as usize])
        .with_explain(explain != 0);
        if metric == 0 {
            query.metric = None;
        }
        if deadline_us > 0 {
            query = query.with_deadline(Duration::from_micros(deadline_us));
        }
        if rid % 2 == 1 {
            query = query.with_request_id(rid);
        }
        let request = wire_request(&query, &sample_store(3, 2));
        let (payload, mode) = request.query().expect("a query verb");
        let back = query_from_wire(payload, mode, max_threads, None);

        let mut expected = query.clone().with_policy(clamp_policy(query.policy, max_threads));
        expected.budget.deadline = query
            .budget
            .deadline
            .map(|d| Duration::from_millis(d.as_micros().div_ceil(1000) as u64));
        prop_assert_eq!(&back, &expected);
        // Time already spent in the queue comes off the deadline only.
        let waited = Duration::from_millis(3);
        let charged = query_from_wire(payload, mode, max_threads, Some(waited));
        prop_assert_eq!(
            charged.budget.deadline,
            expected.budget.deadline.map(|d| d.saturating_sub(waited))
        );
        prop_assert_eq!(charged.with_budget(expected.budget), expected);
    }

    /// V1 frames (no extension) also round-trip unchanged — the layout
    /// old clients emit keeps decoding forever.
    #[test]
    fn v1_frames_roundtrip(t in 0.01f64..1.0, k in 0u64..50, dim in 1usize..6) {
        let store = sample_store(dim, 2);
        let payload = pexeso_serve::query_payload(
            "euclidean",
            Tau::Ratio(0.06),
            ExecPolicy::Sequential,
            &store,
        );
        prop_assert!(payload.ext.is_none(), "query_payload emits V1 frames");
        for request in [
            Request::Search {
                query: payload.clone(),
                t: JoinThreshold::Ratio(t),
            },
            Request::Topk { query: payload, k },
        ] {
            let bytes = encode_request(&request);
            prop_assert_eq!(bytes[4], 1, "extension-less frames stay version 1");
            prop_assert_eq!(&decode_request(&bytes).unwrap(), &request);
        }
    }
}

/// The default extension spells "no overrides": all lemmas on, quick
/// browsing on, unlimited budget — exactly what a fresh `Query` carries.
#[test]
fn default_ext_matches_default_query() {
    let q = Query::threshold(Tau::Ratio(0.06), JoinThreshold::Ratio(0.5));
    let store = sample_store(4, 1);
    match wire_request(&q, &store) {
        Request::Search { query, .. } => {
            assert_eq!(query.ext, Some(QueryExt::default()));
        }
        other => panic!("expected SEARCH, got {other:?}"),
    }
}
