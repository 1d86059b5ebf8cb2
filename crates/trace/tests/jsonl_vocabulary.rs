//! The JSONL trace vocabulary, pinned line by line: one record per
//! [`TraceEvent`] variant (two for `MsgCacheInsert`, with and without an
//! eviction), each with the exact compact JSON it is written as and read
//! back from. `cni-analyze` and archived traces depend on these bytes.

use cni_trace::{MetricsSample, TraceEvent, TraceRecord, NO_NODE, SPAN_FRAME};
use serde_json::Value;
use std::collections::BTreeSet;

fn rec(t_ps: u64, node: u32, event: TraceEvent) -> TraceRecord {
    TraceRecord { t_ps, node, event }
}

/// One sample record per variant, and a second `MsgCacheInsert`.
fn samples() -> Vec<TraceRecord> {
    use TraceEvent::*;
    vec![
        rec(
            0,
            NO_NODE,
            QueueDispatch {
                seq: 41,
                pending: 7,
            },
        ),
        rec(
            1,
            3,
            CothreadSwitch {
                cpu: 3,
                enter: true,
            },
        ),
        rec(
            2,
            0,
            DmaToBoard {
                bytes: 2048,
                dur_ps: 1_250_000,
            },
        ),
        rec(
            3,
            1,
            DmaToHost {
                bytes: 4096,
                dur_ps: 2_500_000,
            },
        ),
        rec(4, 2, MsgCacheHit { page: 17 }),
        rec(5, 2, MsgCacheMiss { page: 18 }),
        rec(
            6,
            2,
            MsgCacheInsert {
                page: 19,
                evicted: None,
            },
        ),
        rec(
            7,
            2,
            MsgCacheInsert {
                page: 20,
                evicted: Some(5),
            },
        ),
        rec(
            8,
            2,
            MsgCacheSnoop {
                page: 21,
                resident: false,
            },
        ),
        rec(9, 2, MsgCacheInvalidate { page: 22 }),
        rec(
            10,
            4,
            Classify {
                cells: 3,
                matched: true,
            },
        ),
        rec(11, 4, AihDispatch { handler: 1 }),
        rec(12, 5, Interrupt),
        rec(13, 5, Poll),
        rec(14, 6, DsmReadFault { page: 9 }),
        rec(15, 6, DsmWriteFault { page: 10 }),
        rec(
            16,
            6,
            DsmAcquire {
                lock: 2,
                local: false,
            },
        ),
        rec(17, 6, DsmRelease { lock: 2 }),
        rec(18, 6, DsmBarrier { epoch: 4 }),
        rec(
            19,
            7,
            DsmMsg {
                kind: 0xD5,
                from: 6,
            },
        ),
        rec(
            20,
            7,
            ProtoTx {
                kind: 0xA0,
                bytes: 64,
                dur_ps: 987_654,
            },
        ),
        rec(
            21,
            1,
            Metrics(MetricsSample {
                interval_ps: 100_000_000,
                tx_messages: 1,
                rx_messages: 2,
                dma_bytes_to_board: 3,
                dma_bytes_to_host: 4,
                tx_cache_hits: 5,
                tx_page_lookups: 6,
                interrupts: 7,
                polls: 8,
                aih_dispatches: 9,
                page_fetches: 10,
                diff_fetches: 11,
                invalidations: 12,
            }),
        ),
        rec(22, 8, CellDropped { vci: 6, cell: 12 }),
        rec(23, 8, CrcFail { vci: 6 }),
        rec(
            24,
            8,
            RetransmitScheduled {
                seq: 9,
                rto_ps: 100_000,
            },
        ),
        rec(25, 8, RetransmitFired { seq: 9, attempt: 2 }),
        rec(26, 8, RingOverflow { channel: 3 }),
        rec(
            27,
            2,
            SpanOpen {
                span: 7,
                parent: 3,
                class: SPAN_FRAME,
                kind: 0xD5,
                src: 2,
                dst: 5,
                bytes: 2048,
            },
        ),
        rec(
            28,
            2,
            SpanTx {
                span: 7,
                host_dma_ps: 100,
                tx_queue_ps: 200,
                wire_ps: 300,
            },
        ),
        rec(
            29,
            5,
            SpanRx {
                span: 7,
                rx_nic_ps: 40,
                sar_ps: 60,
            },
        ),
        rec(30, 5, SpanClose { span: 7 }),
        rec(
            31,
            5,
            UtilNode {
                busy_ps: 9,
                ingress_ps: 8,
                egress_ps: 7,
                ring_hw: 2,
                interval_ps: 1_000,
            },
        ),
        rec(u64::MAX, NO_NODE, UtilQueue { depth: 13 }),
    ]
}

/// The pinned line of a sample. The match is exhaustive and has no
/// wildcard: a new variant does not compile until it has a line here.
fn pinned_line(r: &TraceRecord) -> &'static str {
    use TraceEvent::*;
    match r.event {
        QueueDispatch { .. } => {
            r#"{"t_ps":0,"node":4294967295,"ev":"queue_dispatch","seq":41,"pending":7}"#
        }
        CothreadSwitch { .. } => {
            r#"{"t_ps":1,"node":3,"ev":"cothread_switch","cpu":3,"enter":true}"#
        }
        DmaToBoard { .. } => {
            r#"{"t_ps":2,"node":0,"ev":"dma_to_board","bytes":2048,"dur_ps":1250000}"#
        }
        DmaToHost { .. } => {
            r#"{"t_ps":3,"node":1,"ev":"dma_to_host","bytes":4096,"dur_ps":2500000}"#
        }
        MsgCacheHit { .. } => r#"{"t_ps":4,"node":2,"ev":"msg_cache_hit","page":17}"#,
        MsgCacheMiss { .. } => r#"{"t_ps":5,"node":2,"ev":"msg_cache_miss","page":18}"#,
        MsgCacheInsert { evicted: None, .. } => {
            r#"{"t_ps":6,"node":2,"ev":"msg_cache_insert","page":19,"evicted":null}"#
        }
        MsgCacheInsert {
            evicted: Some(_), ..
        } => r#"{"t_ps":7,"node":2,"ev":"msg_cache_insert","page":20,"evicted":5}"#,
        MsgCacheSnoop { .. } => {
            r#"{"t_ps":8,"node":2,"ev":"msg_cache_snoop","page":21,"resident":false}"#
        }
        MsgCacheInvalidate { .. } => r#"{"t_ps":9,"node":2,"ev":"msg_cache_invalidate","page":22}"#,
        Classify { .. } => r#"{"t_ps":10,"node":4,"ev":"classify","cells":3,"matched":true}"#,
        AihDispatch { .. } => r#"{"t_ps":11,"node":4,"ev":"aih_dispatch","handler":1}"#,
        Interrupt => r#"{"t_ps":12,"node":5,"ev":"interrupt"}"#,
        Poll => r#"{"t_ps":13,"node":5,"ev":"poll"}"#,
        DsmReadFault { .. } => r#"{"t_ps":14,"node":6,"ev":"dsm_read_fault","page":9}"#,
        DsmWriteFault { .. } => r#"{"t_ps":15,"node":6,"ev":"dsm_write_fault","page":10}"#,
        DsmAcquire { .. } => r#"{"t_ps":16,"node":6,"ev":"dsm_acquire","lock":2,"local":false}"#,
        DsmRelease { .. } => r#"{"t_ps":17,"node":6,"ev":"dsm_release","lock":2}"#,
        DsmBarrier { .. } => r#"{"t_ps":18,"node":6,"ev":"dsm_barrier","epoch":4}"#,
        DsmMsg { .. } => r#"{"t_ps":19,"node":7,"ev":"dsm_msg","kind":213,"from":6}"#,
        ProtoTx { .. } => {
            r#"{"t_ps":20,"node":7,"ev":"proto_tx","kind":160,"bytes":64,"dur_ps":987654}"#
        }
        Metrics(_) => concat!(
            r#"{"t_ps":21,"node":1,"ev":"metrics","interval_ps":100000000,"#,
            r#""tx_messages":1,"rx_messages":2,"dma_bytes_to_board":3,"#,
            r#""dma_bytes_to_host":4,"tx_cache_hits":5,"tx_page_lookups":6,"#,
            r#""interrupts":7,"polls":8,"aih_dispatches":9,"page_fetches":10,"#,
            r#""diff_fetches":11,"invalidations":12}"#
        ),
        CellDropped { .. } => r#"{"t_ps":22,"node":8,"ev":"cell_dropped","vci":6,"cell":12}"#,
        CrcFail { .. } => r#"{"t_ps":23,"node":8,"ev":"crc_fail","vci":6}"#,
        RetransmitScheduled { .. } => {
            r#"{"t_ps":24,"node":8,"ev":"retransmit_scheduled","seq":9,"rto_ps":100000}"#
        }
        RetransmitFired { .. } => {
            r#"{"t_ps":25,"node":8,"ev":"retransmit_fired","seq":9,"attempt":2}"#
        }
        RingOverflow { .. } => r#"{"t_ps":26,"node":8,"ev":"ring_overflow","channel":3}"#,
        SpanOpen { .. } => concat!(
            r#"{"t_ps":27,"node":2,"ev":"span_open","span":7,"parent":3,"class":1,"#,
            r#""kind":213,"src":2,"dst":5,"bytes":2048}"#
        ),
        SpanTx { .. } => concat!(
            r#"{"t_ps":28,"node":2,"ev":"span_tx","span":7,"host_dma_ps":100,"#,
            r#""tx_queue_ps":200,"wire_ps":300}"#
        ),
        SpanRx { .. } => {
            r#"{"t_ps":29,"node":5,"ev":"span_rx","span":7,"rx_nic_ps":40,"sar_ps":60}"#
        }
        SpanClose { .. } => r#"{"t_ps":30,"node":5,"ev":"span_close","span":7}"#,
        UtilNode { .. } => concat!(
            r#"{"t_ps":31,"node":5,"ev":"util_node","busy_ps":9,"ingress_ps":8,"#,
            r#""egress_ps":7,"ring_hw":2,"interval_ps":1000}"#
        ),
        UtilQueue { .. } => {
            r#"{"t_ps":18446744073709551615,"node":4294967295,"ev":"util_queue","depth":13}"#
        }
    }
}

#[test]
fn each_variant_writes_and_reads_its_pinned_line() {
    let samples = samples();
    let mut tags = BTreeSet::new();
    for r in &samples {
        let line = pinned_line(r);
        assert_eq!(serde_json::to_string(r).unwrap(), line);
        let back: TraceRecord = serde_json::from_str(line).unwrap();
        assert_eq!(back, *r, "{line}");
        let v: Value = serde_json::from_str(line).unwrap();
        tags.insert(v["ev"].as_str().unwrap().to_string());
    }
    // 32 variants, one tag each; `msg_cache_insert` is sampled twice.
    assert_eq!(tags.len(), 32, "{tags:?}");
    assert_eq!(samples.len(), 33);
}

/// Every trace line must be a JSON object carrying a known string `ev`
/// tag; anything else is refused with an error that says what is wrong.
/// The Application Device Channel rings were never simulated, so no run
/// recorded their `adc_enqueue`/`adc_dequeue` events and their tags are
/// unknown too.
#[test]
fn a_line_with_an_unknown_tag_is_refused_by_name() {
    for (tag, fields) in [
        ("warp_drive", r#""page":3"#),
        ("adc_enqueue", r#""channel":0,"len":64"#),
        ("adc_dequeue", r#""channel":0,"len":64"#),
    ] {
        let line = format!(r#"{{"t_ps":1,"node":0,"ev":"{tag}",{fields}}}"#);
        let err = serde_json::from_str::<TraceRecord>(&line).unwrap_err();
        assert!(err.to_string().contains(tag), "{err}");
    }
}

#[test]
fn a_line_without_a_tag_is_refused() {
    let line = r#"{"t_ps":1,"node":0,"page":3}"#;
    let err = serde_json::from_str::<TraceRecord>(line).unwrap_err();
    assert!(err.to_string().contains(r#"missing "ev" tag"#), "{err}");
}

#[test]
fn a_line_that_is_not_an_object_is_refused() {
    for line in ["[1,2]", "42", r#""poll""#, "null"] {
        let err = serde_json::from_str::<TraceRecord>(line).unwrap_err();
        assert!(err.to_string().contains("object"), "{line}: {err}");
    }
}
