//! The one typed record: what `span!`, `record_sim_span{,_traced}` and
//! `emit_event` build, what the collector and the flight ring store, and
//! what the [`crate::EventSink`] hook receives.
//!
//! A record is a literal name, an optional [`Interval`] (a *span* has
//! one, an *event* does not) and typed [`Field`]s keyed by literals.
//! Numbers stay numbers from the emit site to every reader; text is
//! produced only where an artifact is written, through `Field: Display`.

use std::borrow::Cow;
use std::fmt;

/// Which clock an interval's timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeDomain {
    /// Host wall clock, microseconds since [`crate::reset`] (or first use).
    Wall,
    /// Simulated time from the hwsim cost model, microseconds since the
    /// start of the simulated run.
    Sim,
}

/// When a span happened and on which lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start timestamp in microseconds within `clock`.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Clock the timestamps belong to.
    pub clock: TimeDomain,
    /// Dense per-process thread index (0 = first thread seen), or an
    /// explicit worker lane (see [`crate::set_worker_lane`]).
    pub tid: u64,
}

/// One typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Text: a literal (borrowed) or a run-time label (owned).
    Str(Cow<'static, str>),
    /// A count, index or id.
    U64(u64),
    /// A measurement, with the number of decimals its artifacts have
    /// always printed (6 for `energy_uj` / `analytic_us`, 3 for
    /// `latency_us` / `slo_us`). Readers get the unrounded value.
    F64(f64, usize),
    /// A flag.
    Bool(bool),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Str(s) => f.write_str(s),
            Field::U64(v) => write!(f, "{v}"),
            Field::F64(v, decimals) => write!(f, "{v:.decimals$}"),
            Field::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&'static str> for Field {
    fn from(s: &'static str) -> Field {
        Field::Str(Cow::Borrowed(s))
    }
}

impl From<String> for Field {
    fn from(s: String) -> Field {
        Field::Str(Cow::Owned(s))
    }
}

macro_rules! field_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Field {
            fn from(v: $t) -> Field {
                Field::U64(v as u64)
            }
        }
    )*};
}
field_from_unsigned!(u64, u32, usize);

/// Field list of a record, in the order given at the emit site.
pub type Fields = Vec<(&'static str, Field)>;

/// One recorded span (with an interval) or event (without).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Dotted name, e.g. `byoc.partition`, `executor.node`,
    /// `resilience.fallback`.
    pub name: &'static str,
    /// The span's interval; `None` for an event.
    pub interval: Option<Interval>,
    /// Typed fields. Spans recorded under a trace context end in
    /// `trace` / `span` / `parent` ids and the trace's ambient labels.
    pub fields: Fields,
}

impl Record {
    /// An event: a record without an interval (a span before it ends).
    pub fn event(name: &'static str, fields: Fields) -> Record {
        Record {
            name,
            interval: None,
            fields,
        }
    }

    /// The field's value, if present.
    pub fn get(&self, key: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The field's text, if present and a [`Field::Str`].
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The field's value, if present and a [`Field::U64`].
    pub fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Field::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Span duration in microseconds (0 for an event).
    pub fn dur_us(&self) -> f64 {
        self.interval.map_or(0.0, |i| i.dur_us)
    }
}
