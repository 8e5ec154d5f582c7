//! Black-box trace ingestion: the versioned `mcversi-trace` wire format.
//!
//! External simulators and RTL testbenches log memory operations as text, one
//! operation per line, Axe-style.  This module owns the hand-rolled parser
//! (the build environment is offline, so no parser generators) and the
//! lowering into a [`CandidateExecution`], after which the trace flows
//! through exactly the same checker stack as simulator-observed executions.
//!
//! # Wire format, version 1
//!
//! ```text
//! mcversi-trace v1
//! # comments and blank lines are ignored
//! model tso                  # optional: sc | tso | armish | powerish | rmo
//! store <tid> <addr> <value> # a store; values are per-address unique, nonzero
//! load  <tid> <addr>         # issues a load; its value arrives in a `resp`
//! resp  <tid> <value>        # completes the thread's oldest outstanding load
//! fence <tid> <kind>         # kind: mfence | sfence | lfence | acq | rel | lwsync
//! final <addr> <value>       # optional: observed final memory state
//! ```
//!
//! Numbers are decimal or `0x`-prefixed hexadecimal.  Program order per
//! thread is line order; `resp` lines may arrive out of order with respect
//! to other threads but complete their own thread's loads in FIFO order.
//! The value `0` always denotes the initial state, so a `resp 0` reads the
//! initial value and store values must be nonzero — the per-address
//! write-unique-value discipline is what makes reads-from attribution exact
//! (paper §4.1's write unique ID scheme applied at the trace boundary).
//!
//! Coherence order is *not* part of the format: black-box traces do not
//! observe it.  [`infer_coherence`](crate::vc::infer_coherence) reconstructs
//! it from the lowered execution and the `final` lines.

use mcversi_mcm::event::{Address, FenceKind, ProcessorId, Value};
use mcversi_mcm::execution::{CandidateExecution, ExecutionBuilder};
use mcversi_mcm::ModelKind;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// The version-1 header every trace file must start with.
pub const TRACE_MAGIC_V1: &str = "mcversi-trace v1";

/// A parse or lowering error, with the 1-based source line that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the trace file (0 for end-of-file errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl TraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TraceError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "at end of trace: {}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// One operation of a parsed trace, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A store of `value` to `addr` by thread `tid`.
    Store {
        /// Issuing thread.
        tid: u32,
        /// Target address.
        addr: Address,
        /// Stored value (nonzero, unique per address).
        value: Value,
    },
    /// A load from `addr` issued by thread `tid` (value pending).
    Load {
        /// Issuing thread.
        tid: u32,
        /// Loaded address.
        addr: Address,
    },
    /// The response completing thread `tid`'s oldest outstanding load.
    Resp {
        /// Thread whose load completes.
        tid: u32,
        /// Observed value (`0` = initial state).
        value: Value,
    },
    /// A fence issued by thread `tid`.
    Fence {
        /// Issuing thread.
        tid: u32,
        /// Fence flavour.
        kind: FenceKind,
    },
}

/// A parsed (but not yet lowered) trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceProgram {
    /// The model the trace declares via a `model` directive, if any.
    pub model: Option<ModelKind>,
    ops: Vec<(usize, TraceOp)>,
    finals: Vec<(Address, Value)>,
}

impl TraceProgram {
    /// The parsed operations with their 1-based source lines, in file order.
    pub fn ops(&self) -> impl Iterator<Item = &(usize, TraceOp)> {
        self.ops.iter()
    }

    /// The observed final memory state (`final` lines), in file order.
    pub fn finals(&self) -> &[(Address, Value)] {
        &self.finals
    }

    /// Number of operations (excluding directives and `final` lines).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when the trace carries no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Lowers the trace into a candidate execution.
    ///
    /// Program order is file order per thread; each `resp` completes its
    /// thread's oldest outstanding load; read values map back to their unique
    /// producing store (or the initial state for value `0`).  The returned
    /// execution carries only the initial-write coherence edges — run
    /// [`infer_coherence`](crate::vc::infer_coherence) with
    /// [`finals`](Self::finals) to complete `co` before checking.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] for duplicate or zero store values, responses
    /// without an outstanding load, loads left without a response, or
    /// observed values that no store (to that address) produced.
    pub fn lower(&self) -> Result<LoweredTrace, TraceError> {
        let mut b = ExecutionBuilder::new();
        let mut stores: BTreeMap<(Address, Value), mcversi_mcm::EventId> = BTreeMap::new();
        let mut outstanding: BTreeMap<u32, VecDeque<mcversi_mcm::EventId>> = BTreeMap::new();
        // (read event, observed value, resp line) resolved after all stores
        // are known — a response may precede its producing store in the log.
        let mut resolved: Vec<(mcversi_mcm::EventId, Value, usize)> = Vec::new();

        for &(line, op) in &self.ops {
            match op {
                TraceOp::Store { tid, addr, value } => {
                    if value == Value::INITIAL {
                        return Err(TraceError::new(
                            line,
                            format!(
                                "store of value 0 to {addr}: 0 is reserved for the initial state"
                            ),
                        ));
                    }
                    let w = b.write(ProcessorId(tid), addr, value);
                    if stores.insert((addr, value), w).is_some() {
                        return Err(TraceError::new(
                            line,
                            format!(
                                "duplicate store value {value} to {addr}: values must be \
                                 per-address unique for reads-from attribution"
                            ),
                        ));
                    }
                    b.coherence_after_initial(w);
                }
                TraceOp::Load { tid, addr } => {
                    let r = b.read(ProcessorId(tid), addr, Value::INITIAL);
                    outstanding.entry(tid).or_default().push_back(r);
                }
                TraceOp::Resp { tid, value } => {
                    let Some(r) = outstanding.entry(tid).or_default().pop_front() else {
                        return Err(TraceError::new(
                            line,
                            format!("resp for thread {tid} with no outstanding load"),
                        ));
                    };
                    resolved.push((r, value, line));
                }
                TraceOp::Fence { tid, kind } => {
                    b.fence(ProcessorId(tid), kind);
                }
            }
        }
        for (tid, pending) in &outstanding {
            if !pending.is_empty() {
                return Err(TraceError::new(
                    0,
                    format!(
                        "thread {tid} has {} load(s) without a response",
                        pending.len()
                    ),
                ));
            }
        }
        for (r, value, line) in resolved {
            let addr = b.events()[r.index()].addr.unwrap_or(Address(0));
            if value == Value::INITIAL {
                b.reads_from_initial(r);
            } else if let Some(&w) = stores.get(&(addr, value)) {
                b.set_event_value(r, value);
                b.reads_from(w, r);
            } else {
                return Err(TraceError::new(
                    line,
                    format!("load of {addr} observed value {value}, which no store produced"),
                ));
            }
        }
        Ok(LoweredTrace {
            exec: b.build(),
            finals: self.finals.clone(),
        })
    }
}

/// A lowered trace: the candidate execution (coherence order incomplete —
/// initial-write edges only) plus the observed final state.
#[derive(Debug, Clone)]
pub struct LoweredTrace {
    /// The lowered execution.
    pub exec: CandidateExecution,
    /// The `final` lines, for coherence inference.
    pub finals: Vec<(Address, Value)>,
}

fn parse_number(token: &str, what: &str, line: usize) -> Result<u64, TraceError> {
    let parsed = if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        token.parse::<u64>()
    };
    parsed.map_err(|_| TraceError::new(line, format!("invalid {what} '{token}'")))
}

fn parse_tid(token: &str, line: usize) -> Result<u32, TraceError> {
    let raw = parse_number(token, "thread id", line)?;
    u32::try_from(raw).map_err(|_| TraceError::new(line, format!("thread id '{token}' too large")))
}

fn parse_fence_kind(token: &str, line: usize) -> Result<FenceKind, TraceError> {
    FenceKind::ALL
        .into_iter()
        .find(|k| k.to_string() == token)
        .ok_or_else(|| {
            TraceError::new(
                line,
                format!(
                    "unknown fence kind '{token}' (expected one of mfence, sfence, lfence, \
                     acq, rel, lwsync)"
                ),
            )
        })
}

/// Parses a version-1 trace file.
///
/// # Errors
///
/// Returns a [`TraceError`] with the offending line for a missing or
/// unsupported header, unknown keywords, arity mismatches, malformed numbers,
/// a duplicate `model` directive or a second `final` line for one address.
pub fn parse(text: &str) -> Result<TraceProgram, TraceError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let header = lines
        .by_ref()
        .find(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    match header {
        Some((_, l)) if l == TRACE_MAGIC_V1 => {}
        Some((n, l)) => {
            return Err(TraceError::new(
                n,
                format!("unsupported trace header '{l}' (expected '{TRACE_MAGIC_V1}')"),
            ));
        }
        None => {
            return Err(TraceError::new(
                0,
                format!("empty trace (expected '{TRACE_MAGIC_V1}')"),
            ))
        }
    }
    let mut program = TraceProgram::default();
    for (n, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Strip trailing comments.
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().unwrap_or("");
        let args: Vec<&str> = tokens.collect();
        let arity = |want: usize| -> Result<(), TraceError> {
            if args.len() == want {
                Ok(())
            } else {
                Err(TraceError::new(
                    n,
                    format!("'{keyword}' takes {want} argument(s), got {}", args.len()),
                ))
            }
        };
        match keyword {
            "model" => {
                arity(1)?;
                let model = ModelKind::parse(args[0])
                    .ok_or_else(|| TraceError::new(n, format!("unknown model '{}'", args[0])))?;
                if program.model.replace(model).is_some() {
                    return Err(TraceError::new(n, "duplicate 'model' directive"));
                }
            }
            "store" => {
                arity(3)?;
                program.ops.push((
                    n,
                    TraceOp::Store {
                        tid: parse_tid(args[0], n)?,
                        addr: Address(parse_number(args[1], "address", n)?),
                        value: Value(parse_number(args[2], "value", n)?),
                    },
                ));
            }
            "load" => {
                arity(2)?;
                program.ops.push((
                    n,
                    TraceOp::Load {
                        tid: parse_tid(args[0], n)?,
                        addr: Address(parse_number(args[1], "address", n)?),
                    },
                ));
            }
            "resp" => {
                arity(2)?;
                program.ops.push((
                    n,
                    TraceOp::Resp {
                        tid: parse_tid(args[0], n)?,
                        value: Value(parse_number(args[1], "value", n)?),
                    },
                ));
            }
            "fence" => {
                arity(2)?;
                program.ops.push((
                    n,
                    TraceOp::Fence {
                        tid: parse_tid(args[0], n)?,
                        kind: parse_fence_kind(args[1], n)?,
                    },
                ));
            }
            "final" => {
                arity(2)?;
                let addr = Address(parse_number(args[0], "address", n)?);
                if program.finals.iter().any(|&(a, _)| a == addr) {
                    return Err(TraceError::new(n, format!("duplicate 'final' for {addr}")));
                }
                program
                    .finals
                    .push((addr, Value(parse_number(args[1], "value", n)?)));
            }
            other => {
                return Err(TraceError::new(
                    n,
                    format!(
                        "unknown keyword '{other}' (expected model, store, load, resp, \
                         fence or final)"
                    ),
                ));
            }
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP_OK: &str = "\
mcversi-trace v1
# message passing, fully ordered: data then flag, reader sees both
model tso
store 0 0x100 1
store 0 0x200 1
load 1 0x200
resp 1 1
load 1 0x100
resp 1 1
final 0x100 1
final 0x200 1
";

    #[test]
    fn parses_and_lowers_the_mp_trace() {
        let program = parse(MP_OK).expect("parses");
        assert_eq!(program.model, Some(ModelKind::Tso));
        assert_eq!(program.len(), 6);
        assert!(!program.is_empty());
        assert_eq!(program.finals().len(), 2);
        assert_eq!(program.ops().count(), 6);
        let lowered = program.lower().expect("lowers");
        assert!(lowered.exec.validate().is_ok());
        // 2 stores + 2 loads + 2 initial writes.
        assert_eq!(lowered.exec.len(), 6);
        assert_eq!(lowered.exec.rf().len(), 2);
    }

    #[test]
    fn header_is_mandatory_and_versioned() {
        assert!(parse("").unwrap_err().message.contains("empty trace"));
        let err = parse("mcversi-trace v99\nstore 0 0x10 1\n").unwrap_err();
        assert!(err.message.contains("unsupported trace header"), "{err}");
        assert_eq!(err.line, 1);
        // Comments and blank lines may precede the header.
        assert!(parse("# preamble\n\nmcversi-trace v1\n").is_ok());
    }

    #[test]
    fn resp_completes_loads_in_fifo_order() {
        let text = "\
mcversi-trace v1
store 0 0x10 1
store 0 0x20 2
load 1 0x10
load 1 0x20
resp 1 1
resp 1 2
";
        let lowered = parse(text).unwrap().lower().unwrap();
        assert!(lowered.exec.validate().is_ok());
        // The first resp (value 1) matched the first load (of 0x10): if FIFO
        // pairing were broken, the value would mismatch the address and rf
        // attribution would fail.
        assert_eq!(lowered.exec.rf().len(), 2);
    }

    #[test]
    fn resp_may_precede_its_producing_store() {
        // Cross-thread log order is temporal, not causal: the reader's resp
        // line can be logged before the writer's store line.
        let text = "\
mcversi-trace v1
load 1 0x10
resp 1 7
store 0 0x10 7
";
        let lowered = parse(text).unwrap().lower().unwrap();
        assert!(lowered.exec.validate().is_ok());
        assert_eq!(lowered.exec.rf().len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases: [(&str, &str); 7] = [
            ("mcversi-trace v1\nteleport 0 0x10\n", "unknown keyword"),
            ("mcversi-trace v1\nstore 0 0x10\n", "takes 3 argument(s)"),
            ("mcversi-trace v1\nstore 0 zzz 1\n", "invalid address"),
            (
                "mcversi-trace v1\nfence 0 superfence\n",
                "unknown fence kind",
            ),
            (
                "mcversi-trace v1\nmodel tso\nmodel sc\n",
                "duplicate 'model'",
            ),
            ("mcversi-trace v1\nmodel x86\n", "unknown model"),
            ("mcversi-trace v1\nstore 99999999999 0x10 1\n", "too large"),
        ];
        for (text, expect) in cases {
            let err = parse(text).unwrap_err();
            assert!(err.message.contains(expect), "{text:?}: {err}");
            assert!(err.line >= 2, "{err}");
            assert!(!format!("{err}").is_empty());
        }
    }

    #[test]
    fn a_second_final_for_one_address_is_refused_at_its_line() {
        let text = "mcversi-trace v1\nstore 0 0x100 1\nstore 0 0x100 2\n\
                    final 0x100 2\nfinal 0x100 1\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("duplicate 'final' for 0x100"), "{err}");
        assert_eq!(err.line, 5);
    }

    #[test]
    fn lowering_errors_are_reported() {
        let zero = "mcversi-trace v1\nstore 0 0x10 0\n";
        let err = parse(zero).unwrap().lower().unwrap_err();
        assert!(
            err.message.contains("reserved for the initial state"),
            "{err}"
        );

        let dup = "mcversi-trace v1\nstore 0 0x10 5\nstore 1 0x10 5\n";
        let err = parse(dup).unwrap().lower().unwrap_err();
        assert!(err.message.contains("duplicate store value"), "{err}");
        assert_eq!(err.line, 3);

        let orphan_resp = "mcversi-trace v1\nresp 0 1\n";
        let err = parse(orphan_resp).unwrap().lower().unwrap_err();
        assert!(err.message.contains("no outstanding load"), "{err}");

        let unanswered = "mcversi-trace v1\nload 0 0x10\n";
        let err = parse(unanswered).unwrap().lower().unwrap_err();
        assert!(err.message.contains("without a response"), "{err}");
        assert_eq!(err.line, 0);
        assert!(format!("{err}").contains("at end of trace"));

        let unwritten = "mcversi-trace v1\nload 0 0x10\nresp 0 42\n";
        let err = parse(unwritten).unwrap().lower().unwrap_err();
        assert!(err.message.contains("no store produced"), "{err}");
    }

    #[test]
    fn hex_and_decimal_numbers_are_interchangeable() {
        let text = "\
mcversi-trace v1
store 0 256 1
load 1 0x100
resp 1 0x1
";
        let lowered = parse(text).unwrap().lower().unwrap();
        assert_eq!(lowered.exec.rf().len(), 1, "0x100 == 256 must unify");
    }

    #[test]
    fn trailing_comments_are_stripped() {
        let text = "\
mcversi-trace v1
store 0 0x10 1   # the producer
fence 0 mfence   # drain
";
        let program = parse(text).unwrap();
        assert_eq!(program.len(), 2);
    }
}
