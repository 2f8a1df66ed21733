//! In-memory span recorder of the traced pass. Spans are recorded from the
//! benchmark's side of each public call (name, layer, start, end, parent,
//! run id), counts at the same boundaries, and everything is written out as
//! one Chrome trace when the pass ends.

use crate::json::{obj, Value};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// The crate the span measures.
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Spans of one run of the workload share this id.
    pub run: u32,
    /// Built from counter deltas rather than timed directly.
    pub synthesized: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    /// `(name, at_us, value)` samples taken at span boundaries.
    pub counts: Vec<(String, f64, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Spans begun from now on belong to a new run of the workload.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str, layer: &'static str) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            run: self.run,
            synthesized: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (and anything left open inside it); its duration in
    /// seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        self.spans[id].secs()
    }

    /// Time `f` as a span; returns its value and duration in seconds.
    pub fn time<R>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, layer);
        let r = f();
        (r, self.end(id))
    }

    /// Lay child spans of `secs` seconds each end to end from the start of
    /// `parent` — for phases known only as counter deltas.
    pub fn synthesize_children(
        &mut self,
        parent: usize,
        layer: &'static str,
        parts: &[(&str, f64)],
    ) {
        let mut at = self.spans[parent].start_us;
        let run = self.spans[parent].run;
        for &(name, secs) in parts {
            let dur = secs.max(0.0) * 1e6;
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                start_us: at,
                end_us: at + dur,
                parent: Some(parent),
                run,
                synthesized: true,
            });
            at += dur;
        }
    }

    /// Sample a count at the current boundary.
    pub fn count(&mut self, name: &str, value: f64) {
        let now = self.now_us();
        self.counts.push((name.to_string(), now, value));
    }

    /// A span's duration minus the part of it its children cover, seconds.
    pub fn self_secs(&self, id: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        (self.spans[id].secs() - covered).max(0.0)
    }

    /// Chrome trace-event JSON (open in <https://ui.perfetto.dev>).
    pub fn to_chrome_trace(&self, workload: &str) -> Value {
        let mut events = vec![obj([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", 1usize.into()),
            (
                "args",
                obj([("name", format!("benchmark traced pass: {workload}").into())]),
            ),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            events.push(obj([
                ("name", s.name.as_str().into()),
                ("cat", s.layer.into()),
                ("ph", "X".into()),
                ("ts", s.start_us.into()),
                ("dur", (s.end_us - s.start_us).into()),
                ("pid", 1usize.into()),
                ("tid", (s.run as usize).into()),
                (
                    "args",
                    obj([
                        ("id", id.into()),
                        ("parent", s.parent.map_or(Value::Null, Into::into)),
                        ("run", (s.run as usize).into()),
                        ("self_us", (self.self_secs(id) * 1e6).into()),
                        ("synthesized", s.synthesized.into()),
                    ]),
                ),
            ]));
        }
        for (name, at, value) in &self.counts {
            events.push(obj([
                ("name", name.as_str().into()),
                ("ph", "C".into()),
                ("ts", (*at).into()),
                ("pid", 1usize.into()),
                ("args", obj([("value", (*value).into())])),
            ]));
        }
        obj([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::default();
        t.next_run();
        let outer = t.begin("step", "samr-engine");
        let inner = t.begin("oracle", "bench");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert_eq!(t.spans[outer].parent, None);
        assert!(t.spans[inner].secs() >= 0.002);
        let self_outer = t.self_secs(outer);
        assert!((self_outer + t.spans[inner].secs() - t.spans[outer].secs()).abs() < 1e-9);
    }

    #[test]
    fn synthesized_children_tile_from_the_parent_start() {
        let mut t = Tracer::default();
        let step = t.begin("step", "samr-engine");
        t.end(step);
        t.spans[step].end_us = t.spans[step].start_us + 1000.0;
        t.synthesize_children(step, "samr-engine", &[("solve", 400e-6), ("ghost", 100e-6)]);
        let kids: Vec<&Span> = t.spans.iter().filter(|s| s.parent == Some(step)).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].start_us, t.spans[step].start_us);
        assert_eq!(kids[1].start_us, kids[0].end_us);
        assert!(kids.iter().all(|k| k.synthesized));
        assert!((t.self_secs(step) - 500e-6).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_lists_every_span_and_count() {
        let mut t = Tracer::default();
        t.next_run();
        let (_, secs) = t.time("build", "topology", || ());
        assert!(secs >= 0.0);
        t.count("patches", 12.0);
        let doc = t.to_chrome_trace("w");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("topology"));
        assert_eq!(events[2].get("ph").unwrap().as_str(), Some("C"));
        crate::json::parse(&doc.to_compact()).unwrap();
    }
}
