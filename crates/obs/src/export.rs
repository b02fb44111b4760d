//! Trace exporters: JSONL event log and Chrome `trace_event` JSON.

use crate::trace::{span_histograms, EventKind, TraceRecorder};

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape(s, &mut out);
    out.push('"');
    out
}

impl TraceRecorder {
    /// Exports everything as JSON Lines: one object per event (sorted by
    /// simulated time), then one per counter series, then one per gauge,
    /// then one per phase's span latency histogram (derived here from the
    /// sorted events, so its sums do not depend on host thread order).
    /// Events carry a `corr` field only
    /// when they have a correlation id, so uncorrelated lines are
    /// byte-identical to earlier releases.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let events = self.events();
        for ev in &events {
            let kind = match ev.kind {
                EventKind::Begin => "begin",
                EventKind::End => "end",
                EventKind::Instant => "instant",
            };
            let corr = match ev.corr {
                Some(c) => format!(",\"corr\":{c}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{{\"t\":{},\"rank\":{},\"phase\":{},\"name\":{},\"kind\":\"{}\"{}}}\n",
                ev.t,
                ev.rank,
                json_str(ev.phase.as_str()),
                json_str(&ev.name),
                kind,
                corr
            ));
        }
        for (key, value) in self.metrics().counters() {
            let array = match &key.array {
                Some(a) => json_str(a),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "{{\"counter\":{},\"rank\":{},\"array\":{},\"value\":{}}}\n",
                json_str(key.name),
                key.rank,
                array,
                value
            ));
        }
        for ((name, index), value) in self.metrics().gauges() {
            out.push_str(&format!(
                "{{\"gauge\":{},\"index\":{},\"value\":{}}}\n",
                json_str(name),
                index,
                value
            ));
        }
        for (name, h) in span_histograms(&events) {
            out.push_str(&format!(
                "{{\"hist\":{},\"count\":{},\"sum\":{},\"max\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{}}}\n",
                json_str(name),
                h.count(),
                h.sum(),
                h.max(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
        }
        out
    }

    /// Exports the Chrome `trace_event` JSON loadable in Perfetto or
    /// `chrome://tracing`. Simulated seconds map to microseconds (`ts`),
    /// task ranks to threads (`tid`), phases to categories (`cat`).
    pub fn to_chrome_trace(&self) -> String {
        let events = self.events();
        let mut entries: Vec<String> = Vec::with_capacity(events.len() + 8);
        let mut ranks: Vec<usize> = events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for rank in ranks {
            entries.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{rank},\
                 \"args\":{{\"name\":{}}}}}",
                json_str(&format!("rank {rank}"))
            ));
        }
        for ev in &events {
            let ts = ev.t * 1e6;
            let common = format!(
                "\"name\":{},\"cat\":{},\"ts\":{},\"pid\":0,\"tid\":{}",
                json_str(&ev.name),
                json_str(ev.phase.as_str()),
                ts,
                ev.rank
            );
            let entry = match ev.kind {
                EventKind::Begin => format!("{{\"ph\":\"B\",{common}}}"),
                EventKind::End => format!("{{\"ph\":\"E\",{common}}}"),
                EventKind::Instant => format!("{{\"ph\":\"i\",\"s\":\"t\",{common}}}"),
            };
            entries.push(entry);
        }
        format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n", entries.join(","))
    }
}

#[cfg(test)]
mod tests {
    use crate::recorder::Recorder;
    use crate::trace::TraceRecorder;
    use crate::Phase;

    fn sample() -> TraceRecorder {
        let r = TraceRecorder::new();
        r.span_start(0.25, 0, Phase::Segment, "seg \"q\"");
        r.event(0.5, 1, Phase::Control, "mark");
        r.span_end(1.0, 0, Phase::Segment, "seg \"q\"");
        r.counter_add(1, crate::names::BYTES_STREAMED, Some("u"), 2048);
        r.gauge_set(crate::names::SERVER_BUSY, 2, 0.125);
        r
    }

    /// Golden snapshot: the JSONL export is fully deterministic (simulated
    /// timestamps only), so the exact text is stable across runs.
    #[test]
    fn jsonl_golden() {
        let expected = "\
{\"t\":0.25,\"rank\":0,\"phase\":\"segment\",\"name\":\"seg \\\"q\\\"\",\"kind\":\"begin\"}\n\
{\"t\":0.5,\"rank\":1,\"phase\":\"control\",\"name\":\"mark\",\"kind\":\"instant\"}\n\
{\"t\":1,\"rank\":0,\"phase\":\"segment\",\"name\":\"seg \\\"q\\\"\",\"kind\":\"end\"}\n\
{\"counter\":\"stream.bytes\",\"rank\":1,\"array\":\"u\",\"value\":2048}\n\
{\"gauge\":\"piofs.server_busy\",\"index\":2,\"value\":0.125}\n\
{\"hist\":\"segment\",\"count\":1,\"sum\":0.75,\"max\":0.75,\
\"p50\":0.75,\"p95\":0.75,\"p99\":0.75}\n";
        assert_eq!(sample().to_jsonl(), expected);
    }

    /// Correlated instants carry a `corr` field; uncorrelated lines stay
    /// byte-identical to the golden above.
    #[test]
    fn jsonl_corr_field_only_when_present() {
        let r = TraceRecorder::new();
        r.event_with_corr(0.5, 0, Phase::Control, "job bt started", 3);
        let text = r.to_jsonl();
        assert!(text.contains("\"kind\":\"instant\",\"corr\":3}"));
        let r = TraceRecorder::new();
        r.event(0.5, 0, Phase::Control, "job bt started");
        assert!(!r.to_jsonl().contains("corr"));
    }

    /// The same spans reported in two host interleavings export the same
    /// bytes: the histogram sum adds in sorted order, not arrival order
    /// (0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last digit).
    #[test]
    fn jsonl_is_independent_of_host_interleaving() {
        let export = |ranks: [usize; 3]| {
            let r = TraceRecorder::new();
            for rank in ranks {
                r.span_start(0.0, rank, Phase::StreamWave, "u");
                r.span_end([0.1, 0.2, 0.3][rank], rank, Phase::StreamWave, "u");
            }
            r.to_jsonl()
        };
        let forward = export([0, 1, 2]);
        assert!(forward.contains("\"hist\":\"stream_wave\",\"count\":3"));
        assert_eq!(forward, export([2, 1, 0]));
    }

    /// Golden snapshot of the Chrome trace export.
    #[test]
    fn chrome_trace_golden() {
        let expected = "{\"traceEvents\":[\
{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 0\"}},\
{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"rank 1\"}},\
{\"ph\":\"B\",\"name\":\"seg \\\"q\\\"\",\"cat\":\"segment\",\"ts\":250000,\"pid\":0,\"tid\":0},\
{\"ph\":\"i\",\"s\":\"t\",\"name\":\"mark\",\"cat\":\"control\",\"ts\":500000,\"pid\":0,\"tid\":1},\
{\"ph\":\"E\",\"name\":\"seg \\\"q\\\"\",\"cat\":\"segment\",\"ts\":1000000,\"pid\":0,\"tid\":0}\
],\"displayTimeUnit\":\"ms\"}\n";
        assert_eq!(sample().to_chrome_trace(), expected);
    }

    /// The Chrome export must be structurally valid JSON: balanced
    /// braces/brackets outside strings, no trailing comma.
    #[test]
    fn chrome_trace_balanced_json() {
        let text = sample().to_chrome_trace();
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in text.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
        assert!(!text.contains(",]") && !text.contains(",}"));
    }
}
