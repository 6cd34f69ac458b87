//! `chrome://tracing` / Perfetto JSON export of a run.
//!
//! Layout: everything lives in pid 0. Track (tid) 0 is the **engine** —
//! each journal decision becomes an instant (`ph:"i"`) event. Track
//! `device + 1` is one GPU — each [`Timeline`] segment becomes a complete
//! (`ph:"X"`) event whose duration is the segment's busy interval.
//! Virtual seconds map to trace microseconds (the format's native unit).

use serde::{push_escaped, push_float, push_u64, Deserializer, Serialize, Serializer, Token};
use std::collections::BTreeMap;
use tdpipe_sim::{Segment, Timeline};

use crate::event::{FlightRecorder, TimedEvent, TraceEvent, FLOAT_BYTES, UINT_BYTES};

/// Seconds → Chrome-trace microseconds.
const SECS_TO_US: f64 = 1e6;

// The longest compact text of each record the export writes, with its
// comma: the record with its values cut out, plus [`FLOAT_BYTES`] per
// float and [`UINT_BYTES`] per integer.
const THREAD_NAME_BYTES: usize =
    r#"{"name":"thread_name","ph":"M","pid":0,"tid":,"args":{"name":"gpu"}},"#.len()
        + 2 * UINT_BYTES;
/// A `SwitchDecision` instant, the longest engine event.
const INSTANT_BYTES: usize = r#"{"name":"switch_decision","ph":"i","s":"t","pid":0,"tid":0,"ts":,"args":{"spatial":,"temporal":,"batch":,"est_longest":,"est_phase_len":,"switch":false}},"#.len()
    + 5 * FLOAT_BYTES
    + UINT_BYTES;
const COMPLETE_BYTES: usize =
    r#"{"name":"prefill","ph":"X","pid":0,"tid":,"ts":,"dur":,"args":{"tag":}},"#.len()
        + 2 * FLOAT_BYTES
        + 2 * UINT_BYTES;

/// Append the Chrome `args` object of `event`: its fields. The serde
/// encoding of a struct variant is `{"VariantName":{fields}}`, so the
/// event is serialized in place and its one-key wrapper cut away.
fn push_args(out: &mut String, event: &TraceEvent) {
    let start = out.len();
    event.serialize(&mut Serializer::new(out, false));
    // Variant names are identifiers, so the first `:` ends the key.
    if let Some(colon) = out[start..].strip_prefix('{').and_then(|s| s.find(':')) {
        out.replace_range(start..start + colon + 2, "");
        out.pop();
    }
}

// The writers below append compact JSON in the key order and number
// formatting `serde_json::to_string` gives the same document.

fn push_thread_name(out: &mut String, tid: u64, name: &str) {
    out.push_str(r#"{"name":"thread_name","ph":"M","pid":0,"tid":"#);
    push_u64(out, tid);
    out.push_str(r#","args":{"name":"#);
    push_escaped(out, name);
    out.push_str("}}");
}

fn push_instant(out: &mut String, e: &TimedEvent) {
    out.push_str(r#"{"name":"#);
    push_escaped(out, e.event.label());
    out.push_str(r#","ph":"i","s":"t","pid":0,"tid":0,"ts":"#);
    push_float(out, e.t * SECS_TO_US);
    out.push_str(r#","args":"#);
    push_args(out, &e.event);
    out.push('}');
}

fn push_complete(out: &mut String, s: &Segment) {
    out.push_str(r#"{"name":"#);
    push_escaped(out, s.kind.label());
    out.push_str(r#","ph":"X","pid":0,"tid":"#);
    push_u64(out, u64::from(s.device) + 1);
    out.push_str(r#","ts":"#);
    push_float(out, s.start * SECS_TO_US);
    out.push_str(r#","dur":"#);
    push_float(out, (s.end - s.start) * SECS_TO_US);
    out.push_str(r#","args":{"tag":"#);
    push_u64(out, s.tag);
    out.push_str("}}");
}

/// Export a run as Chrome-trace JSON.
///
/// Deterministic: the output is a pure function of the timeline and the
/// journal (fixed key order, stable per-track sorting via `total_cmp`),
/// so identical runs export byte-identical traces. The text is written
/// directly, one event at a time, with no intermediate `Value` tree, into
/// one buffer reserved from the record counts.
pub fn chrome_trace(timeline: &Timeline, journal: &FlightRecorder) -> String {
    let segs = timeline.segments();
    let mut out = String::with_capacity(
        r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#.len()
            + (timeline.num_devices() + 1) * THREAD_NAME_BYTES
            + journal.events().len() * INSTANT_BYTES
            + segs.len() * COMPLETE_BYTES,
    );

    out.push_str(r#"{"traceEvents":["#);
    push_thread_name(&mut out, 0, "engine");
    for d in 0..timeline.num_devices() as u64 {
        out.push(',');
        push_thread_name(&mut out, d + 1, &format!("gpu{d}"));
    }

    // Engine track: journal order is already time order.
    for e in journal.events() {
        out.push(',');
        push_instant(&mut out, e);
    }

    // Device tracks: one complete event per segment, sorted per device by
    // start time (stable, total order — NaN-free by Timeline's contract).
    let mut by_device: Vec<usize> = (0..segs.len()).collect();
    by_device.sort_by(|&a, &b| {
        segs[a]
            .device
            .cmp(&segs[b].device)
            .then(segs[a].start.total_cmp(&segs[b].start))
    });
    for &i in &by_device {
        out.push(',');
        push_complete(&mut out, &segs[i]);
    }

    out.push_str(r#"],"displayTimeUnit":"ms"}"#);
    // Reserving the bound up front writes the text once, where doubling
    // would copy it at every growth and hold the old and new buffers
    // together; pages of the reservation the text never reaches are
    // never touched. Callers keep the export alive while they parse or
    // write it, so the unused tail is handed back.
    out.shrink_to_fit();
    out
}

/// What [`validate_chrome_trace`] measured about a trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChromeTraceCheck {
    /// Total events in `traceEvents` (including metadata).
    pub events: usize,
    /// Distinct tracks (tids) that carried at least one non-metadata event.
    pub tracks: usize,
    /// `ph:"X"` complete events (device segments).
    pub complete_events: usize,
    /// `ph:"i"` instant events (engine decisions).
    pub instant_events: usize,
}

/// An event's `ph`, classified as it is read.
enum Ph {
    Metadata,
    Complete,
    Instant,
    Other(String),
}

fn as_u64(t: Token<'_>) -> Option<u64> {
    match t {
        Token::UInt(u) => Some(u),
        Token::Int(i) if i >= 0 => Some(i as u64),
        _ => None,
    }
}

fn as_f64(t: Token<'_>) -> Option<f64> {
    match t {
        Token::Float(f) => Some(f),
        Token::UInt(u) => Some(u as f64),
        Token::Int(i) => Some(i as f64),
        _ => None,
    }
}

/// Read the next value with `read` (a container reads as `None`).
fn scalar<T>(
    de: &mut Deserializer<'_>,
    read: impl Fn(Token<'_>) -> Option<T>,
) -> Result<Option<T>, serde::DeError> {
    match de.next_token()? {
        Token::Seq => de.skip_seq().map(|()| None),
        Token::Map => de.skip_map().map(|()| None),
        t => Ok(read(t)),
    }
}

/// Schema-check a Chrome-trace JSON document: it must parse, carry a
/// `traceEvents` array, and every non-metadata event needs a finite,
/// per-track monotone (non-decreasing) `ts`. This is the check
/// `scripts/ci.sh` runs against the CLI's `--trace-out` output.
///
/// One pass over the text with the `serde` tokenizer: the state kept is
/// the last `ts` per track, never the document.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceCheck, String> {
    let invalid = |e: serde::DeError| format!("invalid JSON: {e}");
    let mut de = Deserializer::new(json);
    if de.next_token().map_err(invalid)? != Token::Map {
        return Err("top level is not an object".into());
    }
    let mut check = None;
    while let Some(key) = de.map_key().map_err(invalid)? {
        if key == "traceEvents" && check.is_none() {
            if de.next_token().map_err(invalid)? != Token::Seq {
                return Err("missing traceEvents array".into());
            }
            check = Some(validate_events(&mut de)?);
        } else {
            de.skip().map_err(invalid)?;
        }
    }
    de.end().map_err(invalid)?;
    check.ok_or_else(|| "missing traceEvents array".into())
}

/// Check the elements of an opened `traceEvents` array.
fn validate_events(de: &mut Deserializer<'_>) -> Result<ChromeTraceCheck, String> {
    let invalid = |e: serde::DeError| format!("invalid JSON: {e}");
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut events = 0usize;
    let mut complete = 0usize;
    let mut instants = 0usize;
    while de.seq_next().map_err(invalid)? {
        let i = events;
        events += 1;
        if de.next_token().map_err(invalid)? != Token::Map {
            return Err(format!("event {i} is not an object"));
        }
        // The first occurrence of each key counts; `Some(None)` marks one
        // of the wrong type.
        let (mut ph, mut tid, mut ts, mut dur) = (None, None, None, None);
        while let Some(key) = de.map_key().map_err(invalid)? {
            match key {
                "ph" if ph.is_none() => {
                    ph = Some(
                        scalar(de, |t| match t {
                            Token::Str("M") => Some(Ph::Metadata),
                            Token::Str("X") => Some(Ph::Complete),
                            Token::Str("i") => Some(Ph::Instant),
                            Token::Str(other) => Some(Ph::Other(other.to_string())),
                            _ => None,
                        })
                        .map_err(invalid)?,
                    )
                }
                "tid" if tid.is_none() => tid = Some(scalar(de, as_u64).map_err(invalid)?),
                "ts" if ts.is_none() => ts = Some(scalar(de, as_f64).map_err(invalid)?),
                "dur" if dur.is_none() => dur = Some(scalar(de, as_f64).map_err(invalid)?),
                _ => de.skip().map_err(invalid)?,
            }
        }
        let ph = ph.flatten().ok_or_else(|| format!("event {i} has no ph"))?;
        if let Ph::Metadata = ph {
            continue;
        }
        let tid = tid
            .flatten()
            .ok_or_else(|| format!("event {i} has no tid"))?;
        let ts = ts.flatten().ok_or_else(|| format!("event {i} has no ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i} has non-finite or negative ts {ts}"));
        }
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on track {tid} (prev {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
        match ph {
            Ph::Complete => {
                let dur = dur
                    .flatten()
                    .ok_or_else(|| format!("event {i}: complete event has no dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i} has invalid dur {dur}"));
                }
                complete += 1;
            }
            Ph::Instant => instants += 1,
            Ph::Other(other) => return Err(format!("event {i} has unsupported ph {other:?}")),
            Ph::Metadata => unreachable!(),
        }
    }
    Ok(ChromeTraceCheck {
        events,
        tracks: last_ts.len(),
        complete_events: complete,
        instant_events: instants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::{every_variant, widest_events, WIDEST_FLOAT};
    use crate::event::{PrefillStopReason, TraceEvent};
    use serde::Value;
    use tdpipe_sim::SegmentKind;

    fn sample() -> (Timeline, FlightRecorder) {
        let mut tl = Timeline::new(true);
        tl.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        tl.record(1, 0.25, 1.25, SegmentKind::Prefill, 1);
        tl.record(0, 1.5, 2.5, SegmentKind::Decode, 2);
        let mut r = FlightRecorder::with_capacity(2);
        r.record(
            0.0,
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Budget,
                admitted: 3,
            },
        );
        r.record(
            1.5,
            TraceEvent::SwitchDecision {
                spatial: 0.8,
                temporal: 0.9,
                batch: 12,
                est_longest: 40.0,
                est_phase_len: 25.0,
                switch: true,
            },
        );
        (tl, r)
    }

    #[test]
    fn export_passes_validation() {
        let (tl, r) = sample();
        let json = chrome_trace(&tl, &r);
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.complete_events, tl.segments().len());
        assert_eq!(check.instant_events, r.events().len());
        // engine track + two device tracks
        assert_eq!(check.tracks, 3);
    }

    #[test]
    fn export_is_deterministic() {
        let (tl, r) = sample();
        assert_eq!(chrome_trace(&tl, &r), chrome_trace(&tl, &r));
    }

    /// The event's fields as a tree: its serde encoding, parsed, without
    /// the `{"VariantName": ..}` wrapper.
    fn event_args(event: &TraceEvent) -> Value {
        let tree = serde_json::from_str(&serde_json::to_string(event).unwrap()).unwrap();
        match tree {
            Value::Map(mut entries) if entries.len() == 1 => entries.remove(0).1,
            other => other,
        }
    }

    /// The exporter [`chrome_trace`] replaced: build the whole document as
    /// a `Value` tree, then print it with `serde_json::to_string`.
    fn chrome_trace_via_value(timeline: &Timeline, journal: &FlightRecorder) -> String {
        fn obj(fields: Vec<(&str, Value)>) -> Value {
            Value::Map(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        fn thread_name(tid: u64, name: &str) -> Value {
            obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(tid)),
                ("args", obj(vec![("name", Value::Str(name.into()))])),
            ])
        }
        let segs = timeline.segments();
        let mut events = vec![thread_name(0, "engine")];
        for d in 0..timeline.num_devices() as u64 {
            events.push(thread_name(d + 1, &format!("gpu{d}")));
        }
        for e in journal.events() {
            events.push(obj(vec![
                ("name", Value::Str(e.event.label().into())),
                ("ph", Value::Str("i".into())),
                ("s", Value::Str("t".into())),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(0)),
                ("ts", Value::Float(e.t * SECS_TO_US)),
                ("args", event_args(&e.event)),
            ]));
        }
        let mut by_device: Vec<usize> = (0..segs.len()).collect();
        by_device.sort_by(|&a, &b| {
            segs[a]
                .device
                .cmp(&segs[b].device)
                .then(segs[a].start.total_cmp(&segs[b].start))
        });
        for &i in &by_device {
            let s = &segs[i];
            events.push(obj(vec![
                ("name", Value::Str(s.kind.label().into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(s.device as u64 + 1)),
                ("ts", Value::Float(s.start * SECS_TO_US)),
                ("dur", Value::Float((s.end - s.start) * SECS_TO_US)),
                ("args", obj(vec![("tag", Value::UInt(s.tag))])),
            ]));
        }
        let doc = obj(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
        ]);
        serde_json::to_string(&doc).unwrap()
    }

    #[test]
    fn direct_writer_matches_the_value_tree_exporter() {
        let mut tl = Timeline::new(true);
        let kinds = [
            SegmentKind::Prefill,
            SegmentKind::Decode,
            SegmentKind::Hybrid,
            SegmentKind::Comm,
        ];
        // Out of start order across four devices, with a zero-length
        // segment and a fractional-microsecond one.
        for i in 0..40u64 {
            let start = ((i * 7) % 13) as f64 * 0.1 + 1e-7 * i as f64;
            let end = if i == 5 {
                start
            } else {
                start + 0.05 * (i % 3 + 1) as f64
            };
            tl.record(
                (i % 4) as u32,
                start,
                end,
                kinds[i as usize % 4],
                i * 1_000_003,
            );
        }
        tl.record(2, 0.0, 1.0, SegmentKind::Decode, u64::MAX);
        tl.record_busy(5, 1.0, 0.0, 2.0);
        let journal = every_variant();
        let cases = [
            (&tl, &journal),
            (&tl, &FlightRecorder::disabled()),
            (&Timeline::new(true), &journal),
            (&Timeline::new(true), &FlightRecorder::disabled()),
        ];
        for (tl, journal) in cases {
            assert_eq!(
                chrome_trace(tl, journal),
                chrome_trace_via_value(tl, journal)
            );
        }
        let check = validate_chrome_trace(&chrome_trace(&tl, &journal)).expect("valid trace");
        assert_eq!(check.instant_events, 17);
        assert_eq!(check.complete_events, 41);
    }

    /// Each record at its widest fits the bytes [`chrome_trace`] reserves
    /// for it, and the widest instant fills them.
    #[test]
    fn reserved_record_bytes_bound_every_record() {
        let f = WIDEST_FLOAT / SECS_TO_US;
        let mut longest = 0;
        for event in widest_events(WIDEST_FLOAT) {
            let mut out = String::new();
            push_instant(&mut out, &TimedEvent { t: f, event });
            assert!(out.len() < INSTANT_BYTES, "{event:?}: {}", out.len());
            longest = longest.max(out.len() + 1);
        }
        assert_eq!(longest, INSTANT_BYTES);
        for kind in [
            SegmentKind::Prefill,
            SegmentKind::Decode,
            SegmentKind::Hybrid,
            SegmentKind::Comm,
        ] {
            let mut out = String::new();
            push_complete(
                &mut out,
                &Segment {
                    device: u32::MAX,
                    start: f,
                    end: f,
                    kind,
                    tag: u64::MAX,
                },
            );
            assert!(out.len() < COMPLETE_BYTES, "{kind:?}: {}", out.len());
        }
        let mut out = String::new();
        push_thread_name(&mut out, u64::MAX, &format!("gpu{}", u64::MAX));
        assert!(out.len() < THREAD_NAME_BYTES);
    }

    #[test]
    fn validator_rejects_backwards_ts() {
        let bad = r#"{"traceEvents":[
            {"ph":"i","s":"t","pid":0,"tid":0,"ts":5.0,"name":"a","args":{}},
            {"ph":"i","s":"t","pid":0,"tid":0,"ts":4.0,"name":"b","args":{}}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validator_rejects_non_json() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
