//! Execution observers: hooks that see every executed instruction and
//! memory access.
//!
//! Observers provide the *oracle* against which AccTEE's instrumented
//! counter is validated, and the event stream that drives the
//! cycle-cost model in `acctee-cachesim`.

use std::sync::Arc;

use acctee_wasm::instr::Instr;

/// How an observer wants instruction events delivered.
///
/// The compiled engines ask the attached observer once per invocation
/// and pick a dispatch loop accordingly; the tree-walker always
/// delivers the exact per-instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Accounting {
    /// One [`Observer::on_instr`] per executed instruction, plus the
    /// full memory-access and call/return event streams. Required by
    /// profilers and the cache model.
    #[default]
    PerInstr,
    /// Fused counting: the engine may coalesce any number of executed
    /// instructions into one [`Observer::on_block`] delivery and skip
    /// `on_instr`, `on_mem_access`, `on_call` and `on_return`
    /// entirely. The delivered totals sum to the exact instruction
    /// count, including partially executed blocks on a trap, and
    /// everything is delivered before the invoke returns or traps.
    ///
    /// An observer that declares [`Observer::block_weights`] is also
    /// promised that no batch spans a `memory.grow`: everything up to
    /// and including the grow is delivered before its
    /// [`Observer::on_mem_grow`]. That is what makes a quantity whose
    /// rate depends on the memory size (the memory integral) exact.
    Batched,
}

/// Per-instruction weights, identified by a caller-chosen fingerprint
/// (typically a digest of the weight table they come from).
///
/// A compiled artifact built with weights
/// ([`crate::CompiledModule::compile_weighted`]) carries their prefix
/// sums next to its instruction counts, so the register tier can hand
/// a [`Observer::block_weights`] observer the exact weighted sum of a
/// batch without looking at a single instruction at run time.
#[derive(Clone)]
pub struct InstrWeights {
    key: [u8; 32],
    weight: Arc<dyn Fn(&Instr) -> u64 + Send + Sync>,
}

impl InstrWeights {
    /// Weights `weight`, identified by `key`. Two `InstrWeights` with
    /// the same key must weigh every instruction alike.
    pub fn new(key: [u8; 32], weight: impl Fn(&Instr) -> u64 + Send + Sync + 'static) -> Self {
        InstrWeights {
            key,
            weight: Arc::new(weight),
        }
    }

    /// The fingerprint these weights were registered under.
    pub fn key(&self) -> [u8; 32] {
        self.key
    }

    /// The weight of one executed instruction.
    pub fn weight(&self, instr: &Instr) -> u64 {
        (self.weight)(instr)
    }
}

impl std::fmt::Debug for InstrWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InstrWeights({:02x?}..)", &self.key[..4])
    }
}

/// A hook invoked by the interpreter during execution.
///
/// The default implementations do nothing, so implementors override
/// only the events they need.
pub trait Observer {
    /// Called before each instruction is executed.
    ///
    /// Structured instructions (`block`, `loop`, `if`) are reported
    /// once each time they are *entered*; their `end` delimiters are
    /// never reported. This matches the accounting semantics of the
    /// instrumenter: the injected counter and an observer summing
    /// weights over this event stream agree exactly.
    fn on_instr(&mut self, _instr: &Instr) {}

    /// Called for each linear-memory access with the effective address.
    fn on_mem_access(&mut self, _addr: u64, _len: u32, _is_store: bool) {}

    /// Called when memory is grown, with the new size in bytes.
    fn on_mem_grow(&mut self, _new_size_bytes: usize) {}

    /// Called on function entry (after arguments are bound).
    fn on_call(&mut self, _func_idx: u32) {}

    /// Called on normal function exit (after results are produced),
    /// pairing each [`Observer::on_call`]. *Not* called when the
    /// function unwinds on a trap — observers that keep a shadow call
    /// stack must tolerate unpaired calls (see
    /// `ProfilingObserver::report`, which drains still-open frames).
    fn on_return(&mut self, _func_idx: u32) {}

    /// The delivery mode this observer needs. Defaults to the exact
    /// per-instruction stream; override to [`Accounting::Batched`] to
    /// let the compiled engines fuse counter updates.
    fn accounting(&self) -> Accounting {
        Accounting::PerInstr
    }

    /// The fingerprint ([`InstrWeights::key`]) of the weights whose
    /// sums this observer reads from [`Observer::on_block`]'s
    /// `weighted` argument. `None` (the default): it reads only
    /// `instrs`. An engine that cannot sum exactly these weights — the
    /// flat engine, or the register tier on an artifact built with
    /// other weights or none — delivers the per-instruction stream
    /// instead, so `weighted` is never approximated.
    fn block_weights(&self) -> Option<[u8; 32]> {
        None
    }

    /// Called with a coalesced batch of executed instructions, only
    /// when [`Observer::accounting`] returned [`Accounting::Batched`]
    /// (see there for when batches are settled). `instrs` is their
    /// count; `weighted` is their summed weight under
    /// [`Observer::block_weights`], and is meaningless for an
    /// observer that declares no weights.
    fn on_block(&mut self, _instrs: u64, _weighted: u64) {}

    /// Whether this observer ignores every event ([`NullObserver`]).
    ///
    /// The engines check this once per invoke and, when true, dispatch
    /// to a monomorphised loop where the observer calls compile away —
    /// hoisting the virtual-call null-check out of the hot loop
    /// entirely. Only override to return `true` for an observer whose
    /// every hook is a no-op.
    fn is_null(&self) -> bool {
        false
    }
}

/// An observer that does nothing (zero overhead beyond the virtual
/// dispatch).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn accounting(&self) -> Accounting {
        Accounting::Batched
    }

    fn is_null(&self) -> bool {
        true
    }
}

/// A unit-weight instruction counter that opts in to batched delivery.
///
/// Under the compiled engines this receives coalesced
/// [`Observer::on_block`] batches instead of one [`Observer::on_instr`]
/// per instruction; under the tree-walker it counts per instruction.
/// The final count is identical either way (the differential suite
/// pins this down).
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchedCounter {
    /// Total instructions counted.
    pub count: u64,
}

impl Observer for BatchedCounter {
    fn on_instr(&mut self, _instr: &Instr) {
        self.count += 1;
    }

    fn on_block(&mut self, instrs: u64, _weighted: u64) {
        self.count += instrs;
    }

    fn accounting(&self) -> Accounting {
        Accounting::Batched
    }
}

/// Counts executed instructions, optionally weighted.
///
/// With the default unit weight this is the paper's *instruction
/// counter*; with a weight function it is the *weighted instruction
/// counter* oracle.
pub struct CountingObserver<F = fn(&Instr) -> u64>
where
    F: FnMut(&Instr) -> u64,
{
    /// Total accumulated (weighted) count.
    pub count: u64,
    weight: F,
}

impl CountingObserver {
    /// A unit-weight counter: every instruction counts 1.
    pub fn unit() -> CountingObserver {
        CountingObserver {
            count: 0,
            weight: |_| 1,
        }
    }
}

impl<F: FnMut(&Instr) -> u64> CountingObserver<F> {
    /// A counter using `weight` to weigh each executed instruction.
    pub fn with_weight(weight: F) -> CountingObserver<F> {
        CountingObserver { count: 0, weight }
    }
}

impl<F: FnMut(&Instr) -> u64> Observer for CountingObserver<F> {
    fn on_instr(&mut self, instr: &Instr) {
        self.count += (self.weight)(instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_counter_counts() {
        let mut c = CountingObserver::unit();
        c.on_instr(&Instr::Nop);
        c.on_instr(&Instr::I32Const(3));
        assert_eq!(c.count, 2);
    }

    #[test]
    fn weighted_counter_weighs() {
        let mut c = CountingObserver::with_weight(|i| match i {
            Instr::Nop => 0,
            _ => 5,
        });
        c.on_instr(&Instr::Nop);
        c.on_instr(&Instr::Drop);
        assert_eq!(c.count, 5);
    }
}
