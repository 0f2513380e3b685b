//! Low-overhead structured event tracing.
//!
//! Components call [`emit`] unconditionally from their tick paths; the
//! call is an `#[inline]` branch on a thread-local bool that costs
//! nothing measurable while tracing is disabled (the common case). When
//! a run starts with `SimParams::trace` set, the simulator arms the
//! thread-local sink via [`start`]; [`finish`] disarms it and hands the
//! collected [`TraceLog`] back.
//!
//! The sink is thread-local because the sweep harness fans independent
//! `simulate` calls out across worker threads: each run's events land in
//! its own thread's buffer with no synchronization on the hot path.
//!
//! Two render targets:
//!
//! * [`TraceLog::to_text`] — one line per event, the byte-stable format
//!   the golden-trace regression test compares;
//! * [`TraceLog::to_chrome_json`] — the Chrome `trace_event` JSON array
//!   format, loadable in `chrome://tracing` and Perfetto (`--trace-out`
//!   on every experiment binary).

use std::cell::{Cell, RefCell};

/// One structured trace event.
///
/// `tick` is the emitting component's *local clock-domain cycle* (uncore
/// cycles for the hierarchy, big-cluster cycles for the big core, …);
/// `component`/`unit` identify the emitter (`("little", 3)`), `kind` the
/// event, and `payload` one event-defined value (a sequence number, a
/// line address, a window length).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock-domain cycle at which the event happened.
    pub tick: u64,
    /// Emitting component class (`"big"`, `"vmu"`, `"dram"`, `"sim"`, …).
    pub component: &'static str,
    /// Instance index within the class (core id, bank id; 0 if unique).
    pub unit: u16,
    /// Event kind (`"vec_dispatch"`, `"rd"`, `"skip"`, …).
    pub kind: &'static str,
    /// Event-defined value.
    pub payload: u64,
}

/// A bounded, ordered collection of [`TraceEvent`]s.
///
/// The buffer keeps the *first* `capacity` events and counts the rest in
/// [`TraceLog::dropped`] — a deterministic policy, so a truncated trace
/// is still byte-stable run to run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceLog {
    /// An empty log holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records `ev`, or counts it dropped once the buffer is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that arrived after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The byte-stable text rendering: one `tick component[unit] kind
    /// payload` line per event, plus a trailing `# dropped N` marker when
    /// the buffer overflowed. This is what the golden-trace regression
    /// test byte-compares.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 32);
        for e in &self.events {
            out.push_str(&format!(
                "{} {}[{}] {} {}\n",
                e.tick, e.component, e.unit, e.kind, e.payload
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("# dropped {}\n", self.dropped));
        }
        out
    }

    /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object
    /// form). Each event becomes an instant event (`"ph":"i"`) at
    /// `ts = tick`; each distinct `(component, unit)` pair becomes a
    /// named thread so Perfetto groups events by emitter.
    pub fn to_chrome_json(&self) -> String {
        // Stable (component, unit) -> tid mapping in first-seen order.
        let mut emitters: Vec<(&'static str, u16)> = Vec::new();
        let tid_of =
            |c: &'static str, u: u16, emitters: &mut Vec<(&'static str, u16)>| match emitters
                .iter()
                .position(|&(ec, eu)| ec == c && eu == u)
            {
                Some(i) => i,
                None => {
                    emitters.push((c, u));
                    emitters.len() - 1
                }
            };
        let mut body = String::from("{\"traceEvents\":[");
        let mut first = true;
        for e in &self.events {
            let tid = tid_of(e.component, e.unit, &mut emitters);
            if !first {
                body.push(',');
            }
            first = false;
            body.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"payload\":{}}}}}",
                e.kind, e.component, e.tick, tid, e.payload
            ));
        }
        // Thread-name metadata so viewers label rows `big/0`, `dram/0`, …
        for (tid, (c, u)) in emitters.iter().enumerate() {
            if !first {
                body.push(',');
            }
            first = false;
            body.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{c}/{u}\"}}}}"
            ));
        }
        body.push_str(&format!(
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped
        ));
        body
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<TraceLog> = const {
        RefCell::new(TraceLog {
            events: Vec::new(),
            capacity: 0,
            dropped: 0,
        })
    };
}

/// True while this thread's trace sink is armed.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Records one event into this thread's sink — an `#[inline]` branch on
/// a thread-local bool when tracing is disabled, so it may sit on
/// moderately hot simulator paths.
#[inline]
pub fn emit(tick: u64, component: &'static str, unit: u16, kind: &'static str, payload: u64) {
    if !active() {
        return;
    }
    emit_armed(TraceEvent {
        tick,
        component,
        unit,
        kind,
        payload,
    });
}

#[cold]
fn emit_armed(ev: TraceEvent) {
    SINK.with(|s| s.borrow_mut().push(ev));
}

/// Arms this thread's sink with a fresh buffer of `capacity` events.
/// Any previously collected (un-finished) events are discarded.
pub fn start(capacity: usize) {
    SINK.with(|s| *s.borrow_mut() = TraceLog::new(capacity));
    ACTIVE.with(|a| a.set(true));
}

/// Disarms this thread's sink and returns everything it collected.
/// Calling without a prior [`start`] returns an empty log.
pub fn finish() -> TraceLog {
    ACTIVE.with(|a| a.set(false));
    SINK.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_is_a_no_op() {
        assert!(!active());
        emit(1, "x", 0, "k", 2);
        assert!(finish().is_empty());
    }

    #[test]
    fn start_emit_finish_round_trip() {
        start(8);
        assert!(active());
        emit(5, "big", 0, "vec_dispatch", 42);
        emit(9, "dram", 0, "rd", 0x4000);
        let log = finish();
        assert!(!active());
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].tick, 5);
        assert_eq!(log.events()[1].payload, 0x4000);
        assert_eq!(log.dropped(), 0);
        // A second finish yields nothing.
        assert!(finish().is_empty());
    }

    #[test]
    fn overflow_keeps_prefix_and_counts_drops() {
        start(2);
        for i in 0..5 {
            emit(i, "c", 0, "k", i);
        }
        let log = finish();
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.events()[1].tick, 1);
        assert!(log.to_text().ends_with("# dropped 3\n"));
    }

    #[test]
    fn text_format_is_stable() {
        let mut log = TraceLog::new(4);
        log.push(TraceEvent {
            tick: 7,
            component: "little",
            unit: 3,
            kind: "halt",
            payload: 0,
        });
        assert_eq!(log.to_text(), "7 little[3] halt 0\n");
    }

    #[test]
    fn chrome_json_names_threads() {
        let mut log = TraceLog::new(4);
        log.push(TraceEvent {
            tick: 1,
            component: "vmu",
            unit: 0,
            kind: "mem_cmd",
            payload: 9,
        });
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"mem_cmd\""));
        assert!(json.contains("\"name\":\"vmu/0\""));
        assert!(json.contains("\"dropped\":0"));
    }
}
