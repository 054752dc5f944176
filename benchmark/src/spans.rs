//! Spans recorded by the benchmark around the calls it makes into the
//! system. Buffers are per thread and allocated before the measured phase;
//! nothing is written out until the run has ended.

use std::collections::BTreeMap;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id: spans of one operation (or one pipelined batch) share it.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Timestamps are nanoseconds since an origin
/// shared by all threads of the run and are taken by the caller: the worker
/// loop already reads the clock around every call, so recording a span
/// costs a bounds check and a store.
#[derive(Debug)]
pub struct SpanBuf {
    pub thread: u32,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(thread: u32, capacity: usize) -> SpanBuf {
        SpanBuf {
            thread,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records a finished span and returns its index for use as a parent.
    /// A full buffer drops the span and counts it, never reallocates.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Reserves a parent whose end is not known yet; close it with
    /// [`SpanBuf::finish`].
    pub fn begin(&mut self, name: &'static str, req: u64, start_ns: u64) -> u32 {
        self.record(name, NO_PARENT, req, start_ns, start_ns)
    }

    pub fn finish(&mut self, idx: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span: its duration minus the part of it that its children cover.
/// Children may overlap one another (pipelined requests do), so their
/// union is taken, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for (parent, mut kids) in children {
        let Some(p) = spans.get(parent as usize) else {
            continue;
        };
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            let end = end.min(p.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        out[parent as usize] = out[parent as usize].saturating_sub(covered);
    }
    out
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Totals per span name over all threads' buffers.
pub fn totals_by_name(bufs: &[&SpanBuf]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for buf in bufs {
        let selfs = self_times(buf.spans());
        for (s, self_ns) in buf.spans().iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns.saturating_sub(s.start_ns);
            t.self_ns += self_ns;
        }
    }
    out
}

/// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`). At
/// most `max_per_thread` spans of each thread are written, the first ones:
/// the file is for looking at, the totals above use every span.
pub fn to_chrome_json(bufs: &[&SpanBuf], max_per_thread: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for buf in bufs {
        for (i, s) in buf.spans().iter().take(max_per_thread).enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                buf.thread,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.req
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Three pipelined requests overlap; together they cover 10..80.
        let spans = [
            span("batch", NO_PARENT, 0, 100),
            span("req", 0, 10, 60),
            span("req", 0, 20, 70),
            span("req", 0, 30, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_nests() {
        let spans = [
            span("op", NO_PARENT, 100, 200),
            span("early", 0, 50, 120),
            span("late", 0, 180, 260),
            span("inner", 1, 60, 110),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 60, "parent keeps 120..180");
        assert_eq!(selfs[1], 20, "child loses what its own child covers");
        assert_eq!(selfs[3], 50);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut buf = SpanBuf::new(0, 2);
        let root = buf.begin("op", 7, 5);
        assert_eq!(buf.record("call", root, 7, 5, 9), 1);
        assert_eq!(buf.record("call", root, 7, 9, 12), NO_PARENT);
        buf.finish(root, 12);
        assert_eq!(buf.dropped, 1);
        assert_eq!(buf.spans()[0].end_ns, 12);
        assert_eq!(buf.spans().len(), 2);
    }

    #[test]
    fn totals_and_chrome_json() {
        let mut buf = SpanBuf::new(3, 8);
        let root = buf.begin("op", 1, 0);
        buf.record("call", root, 1, 0, 600);
        buf.finish(root, 1000);
        let bufs = [&buf];
        let totals = totals_by_name(&bufs);
        assert_eq!(
            totals["op"],
            NameTotals {
                count: 1,
                total_ns: 1000,
                self_ns: 400
            }
        );
        assert_eq!(totals["call"].mean_ns(), 600.0);
        let json = to_chrome_json(&bufs, 1);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"op\""));
        assert!(json.contains("\"tid\":3") && !json.contains("\"call\""));
    }
}
