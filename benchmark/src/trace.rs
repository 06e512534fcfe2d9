//! In-memory spans recorded by the benchmark *around* its calls into
//! each layer's public functions (the product itself is not
//! instrumented), the budget tree built from them, and the JSON dump.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`; the layer is the crate's directory name.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one operation share this id.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Spans nest by call order: a span opened
/// while another is open is its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so their spans merge onto
    /// one time axis.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str, op: u64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration in ms.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter") as usize;
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ns() as f64 / 1e6
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span when tracing, and plainly when not — the one
/// call shape both passes share.
pub fn spanned<R>(
    tracer: Option<&std::cell::RefCell<Tracer>>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            t.borrow_mut().enter(name, op);
            let r = f();
            t.borrow_mut().exit();
            r
        }
    }
}

/// One row of the budget tree: every span with the same chain of names
/// from the root, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Names from the root, `/`-joined.
    pub path: String,
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children: the time
    /// this layer spent itself, or that the benchmark did not attribute.
    pub self_ns: u64,
    pub has_children: bool,
}

pub fn budget(spans: &[Span]) -> Vec<BudgetRow> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.ns();
        }
    }
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    for s in spans {
        // A parent is always recorded before its children.
        paths.push(match s.parent {
            Some(p) => format!("{}/{}", paths[p as usize], s.name),
            None => s.name.to_string(),
        });
    }
    let mut rows: BTreeMap<&str, BudgetRow> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry(&paths[i]).or_insert_with(|| BudgetRow {
            path: paths[i].clone(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            has_children: false,
        });
        row.calls += 1;
        row.total_ns += s.ns();
        row.self_ns += s.ns().saturating_sub(child_ns[i]);
        row.has_children |= child_ns[i] > 0;
    }
    rows.into_values().collect()
}

/// The budget as an indented tree, per-call means in ms, with an
/// explicit `unaccounted` row under every span that has children.
pub fn render_budget(rows: &[BudgetRow]) -> String {
    let mut out = String::new();
    for r in rows {
        let depth = r.path.matches('/').count();
        let name = r.path.rsplit('/').next().unwrap_or(&r.path);
        let per_call = |ns: u64| ns as f64 / 1e6 / r.calls as f64;
        out.push_str(&format!(
            "{:indent$}{name:<w$} {:>10.4} ms/call  x{}\n",
            "",
            per_call(r.total_ns),
            r.calls,
            indent = depth * 2,
            w = 44usize.saturating_sub(depth * 2),
        ));
        if r.has_children {
            out.push_str(&format!(
                "{:indent$}{:<w$} {:>10.4} ms/call  ({:.1}% of {name})\n",
                "",
                "unaccounted",
                per_call(r.self_ns),
                100.0 * r.self_ns as f64 / r.total_ns.max(1) as f64,
                indent = depth * 2 + 2,
                w = 42usize.saturating_sub(depth * 2),
            ));
        }
    }
    out
}

/// Mean duration in ms of the spans called `name` (0 when there are none).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let (mut ns, mut n) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        ns += s.ns();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        ns as f64 / 1e6 / n as f64
    }
}

pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns,
            s.op
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_unaccounted_is_explicit() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("op", 200, 260, None),
            span("a", 210, 250, Some(4)),
        ];
        let rows = budget(&spans);
        let row = |p: &str| rows.iter().find(|r| r.path == p).expect("row").clone();
        let op = row("op");
        assert_eq!((op.calls, op.total_ns, op.self_ns), (2, 160, 50 + 20));
        assert!(op.has_children);
        let a = row("op/a");
        assert_eq!((a.calls, a.total_ns, a.self_ns), (2, 70, 20 + 40));
        let leaf = row("op/a/leaf");
        assert_eq!(
            (leaf.total_ns, leaf.self_ns, leaf.has_children),
            (10, 10, false)
        );
        // Parents' self time plus every leaf adds back up to the roots.
        let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 160);
        let text = render_budget(&rows);
        assert_eq!(text.matches("unaccounted").count(), 2, "{text}");
    }

    #[test]
    fn tracer_nests_by_call_order_and_absorb_keeps_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.enter("outer", 1);
        a.enter("inner", 1);
        a.exit();
        a.exit();
        let mut b = Tracer::new(epoch);
        b.enter("outer", 2);
        b.enter("inner", 2);
        b.exit();
        b.exit();
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[3].parent), (Some(0), Some(2)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(budget(s).len(), 2);
    }
}
