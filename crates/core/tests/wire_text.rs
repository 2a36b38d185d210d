//! Every wire type reads back from its own text bit for bit — compact,
//! pretty, whitespace-padded, or re-printed from the `Value` tree the text
//! parses to (the tree is one more type on the same printer and reader).

use orbit2::serving::{RequestSource, ServeHealth, ServeRequest, ServeResponse, ServeStats, WireError};
use orbit2_model::WeightPrecision;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Any finite `f32`, by bit pattern: subnormals, both zeros and the
/// extremes come up as often as their share of the patterns.
fn float() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(|bits| {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f32::from_bits(bits & 0x807F_FFFF)
        }
    })
}

/// Strings that need every escape the printer has, and some it passes through.
fn string() -> impl Strategy<Value = String> {
    const ALPHABET: [&str; 12] = ["a", "Z", "7", " ", "\"", "\\", "\n", "\t", "\u{1}", "é", "気", "/"];
    collection::vec(0usize..ALPHABET.len(), 0..8).prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A whole number a JSON number holds exactly.
fn uint() -> impl Strategy<Value = u64> {
    (0u32..4, 0u64..=1 << 53).prop_map(|(small, n)| if small == 0 { n } else { n % 4096 })
}

fn request() -> impl Strategy<Value = ServeRequest> {
    let source = (0u32..2, string(), uint(), collection::vec(uint(), 0..4), collection::vec(float(), 0..40)).prop_map(
        |(raw, name, time, shape, data)| match raw {
            0 => RequestSource::Region { name, time: time as usize },
            _ => RequestSource::Raw { shape: shape.into_iter().map(|d| d as usize).collect(), data },
        },
    );
    let knobs = (0u32..2, collection::vec(string(), 0..3), 0usize..4, 0u32..2, uint());
    (uint(), source, float(), knobs).prop_map(|(id, source, compression, knobs)| {
        let (has_vars, vars, precision, has_deadline, deadline) = knobs;
        ServeRequest {
            id,
            source,
            compression,
            variables: (has_vars == 1).then_some(vars),
            precision: WeightPrecision::ALL.get(precision).copied(),
            deadline_ms: (has_deadline == 1).then_some(deadline),
        }
    })
}

fn response() -> impl Strategy<Value = ServeResponse> {
    (uint(), collection::vec(uint(), 0..4), collection::vec(float(), 0..60), uint()).prop_map(
        |(id, shape, data, micros)| ServeResponse {
            id,
            shape: shape.into_iter().map(|d| d as usize).collect(),
            data,
            micros,
        },
    )
}

/// `t`'s text — compact, pretty, whitespace-padded, or re-printed from the
/// `Value` tree it parses to — reads back as `t`, bit for bit.
fn reads_back<T: Serialize + Deserialize + PartialEq + Debug>(t: &T) -> Result<(), TestCaseError> {
    let compact = serde_json::to_string(t).unwrap();
    let pretty = serde_json::to_string_pretty(t).unwrap();
    let padded = format!(" \t{} \r\n", pretty.replace('\n', " \r\n\t "));
    let tree: Value = serde_json::from_str(&compact).map_err(|e| TestCaseError::fail(format!("{compact}: {e}")))?;
    let tree_text = serde_json::to_string(&tree).unwrap();
    for text in [&compact, &pretty, &padded, &tree_text] {
        let back: T = serde_json::from_str(text).map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
        prop_assert_eq!(&back, t);
        // `==` cannot tell `-0.0` from `0.0`; the text can.
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), compact.clone());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn requests_read_back(req in request()) {
        reads_back(&req)?;
    }

    #[test]
    fn responses_read_back(resp in response()) {
        reads_back(&resp)?;
    }

    #[test]
    fn control_replies_and_errors_read_back(
        counters in collection::vec(uint(), 11),
        status in string(),
        kind in string(),
        message in string(),
    ) {
        let c = &counters;
        reads_back(&ServeStats {
            admitted: c[0], completed: c[1], batches: c[2], batched_jobs: c[3], retried_jobs: c[4],
            quarantined_jobs: c[5], shed_jobs: c[6], deadline_expired: c[7], pool_fresh_allocs: c[8],
            pool_reuses: c[9], pool_copies: c[10],
        })?;
        reads_back(&ServeHealth { status, inflight: c[0], queue_depth: c[1] })?;
        reads_back(&WireError { kind, message })?;
    }

    #[test]
    fn nested_containers_read_back(
        entries in collection::vec((string(), collection::vec(uint(), 0..4), collection::vec(float(), 0..20)), 0..5),
    ) {
        let map: BTreeMap<String, (Vec<usize>, Vec<f32>)> = entries
            .into_iter()
            .map(|(name, shape, data)| (name, (shape.into_iter().map(|d| d as usize).collect(), data)))
            .collect();
        reads_back(&map)?;
    }
}

/// What the derive does with a key it was not given, was given twice, or
/// does not know.
#[test]
fn absent_repeated_and_unknown_keys() {
    let read = |text: &str| serde_json::from_str::<ServeHealth>(text).map_err(|e| e.to_string());
    let want = ServeHealth { status: "ok".into(), inflight: 2, queue_depth: 0 };
    let got = read(r#"{"inflight":1,"later":{"a":[1,{"b":null}]},"status":"ok","inflight":2,"queue_depth":0}"#);
    assert_eq!(got.unwrap(), want);
    assert!(read(r#"{"status":"ok","inflight":2}"#).unwrap_err().contains("missing field `queue_depth`"));
    assert!(read(r#"{"status":7,"inflight":2,"queue_depth":0}"#).unwrap_err().contains("`status`"));
}
