//! In-memory spans recorded by the benchmark around calls into public
//! simulator functions, written out once as `trace.json`.
//!
//! Nothing here lives inside the simulator: a span is opened and closed by
//! the benchmark's own code at a layer boundary. Calls made once per
//! simulated cycle (`Core::tick`, `MemorySystem::tick`) are not recorded
//! one span each; they are accumulated into one span per cell that carries
//! the summed busy time and the call count.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One span. `busy_ns` is `end_ns - start_ns` for an ordinary span and the
/// summed call time for an accumulated one (whose `start_ns..end_ns` is the
/// interval of the loop that made the calls).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Index into [`Tracer::cells`]: spans of one cell share it.
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// The span store of one traced run. A tracer that is off records
/// nothing: every call returns after one branch, so untraced passes share
/// the traced passes' code without paying for spans.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    pub cells: Vec<String>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            cells: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Registers a cell identity and returns its index.
    pub fn cell(&mut self, id: &str) -> usize {
        if !self.on {
            return 0;
        }
        self.cells.push(id.to_string());
        self.cells.len() - 1
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, cell);
        let r = f();
        self.end(id);
        r
    }

    /// Records `calls` accumulated calls totalling `busy_ns` as one child
    /// of the innermost open span, covering that span's interval so far.
    pub fn accumulated(&mut self, name: &'static str, busy_ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let (start_ns, cell) =
            parent.map_or((0, None), |p| (self.spans[p].start_ns, self.spans[p].cell));
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns,
            busy_ns,
            calls,
        });
    }

    /// Summed busy time of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Summed self time of every span called `name`, in seconds: busy time
    /// minus the busy time of its direct children.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.busy_ns.saturating_sub(*c))
            .sum::<u64>() as f64
            / 1e9
    }

    /// The whole store as one JSON document.
    pub fn json(&self) -> String {
        let mut out = String::from("{\"schema\":\"fa-benchmark-trace-v1\",\"cells\":[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::quote(c));
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"parent\":{},\"cell\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"busy_ns\":{},\"calls\":{}}}{sep}",
                json::quote(s.name),
                opt(s.parent),
                opt(s.cell),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_json_parses() {
        let mut t = Tracer::on();
        let cell = t.cell("k/p");
        let outer = t.begin("outer", Some(cell));
        t.scope("inner", Some(cell), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.accumulated("ticks", 500, 7);
        t.end(outer);
        assert!(t.total_s("outer") >= t.total_s("inner"));
        let expect = t.total_s("outer") - t.total_s("inner") - 500e-9;
        assert!((t.self_s("outer") - expect).abs() < 1e-9);
        let doc = json::parse(&t.json()).expect("trace.json parses");
        assert_eq!(doc.get("spans").as_arr()[2].get("calls").as_u64(), Some(7));
        assert_eq!(doc.get("spans").as_arr().len(), 3);
        assert_eq!(doc.get("spans").as_arr()[1].get("parent").as_u64(), Some(0));
        assert_eq!(doc.get("cells").as_arr()[0].as_str(), Some("k/p"));
        let mut off = Tracer::off();
        let id = off.begin("x", None);
        off.end(id);
        assert!(off.spans.is_empty());
    }
}
