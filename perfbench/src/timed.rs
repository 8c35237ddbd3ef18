//! A timing adapter around [`InstructionStream`]: the `workloads` layer
//! seen from outside, without a span inside the program.
//!
//! The core pulls the architectural stream in blocks of thousands of
//! instructions, so timing each `next_block` call costs a clock read per
//! few thousand instructions. `inst_at` (wrong-path static decode) is
//! timed per call; its clock reads are the bulk of the tracing overhead
//! the traced run reports. `next_inst` is only counted, never timed: its
//! callers are checkpoint restore, which fast-forwards the stream one
//! instruction at a time inside the restore span, and capture, which the
//! set-up span covers.

use cobra_uarch::{DynInst, InstructionStream, StaticInst};
use std::cell::Cell;
use std::time::Instant;

/// Counters of one [`Timed`] stream.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StreamCost {
    /// Nanoseconds inside `next_block`.
    pub block_ns: u64,
    /// Instructions handed out by `next_block`.
    pub block_insts: u64,
    /// Instructions handed out by `next_inst` (untimed).
    pub single_insts: u64,
    /// `inst_at` calls.
    pub inst_at_calls: u64,
    /// Nanoseconds inside `inst_at`.
    pub inst_at_ns: u64,
}

impl StreamCost {
    /// Every instruction pulled from the stream.
    pub fn pulls(&self) -> u64 {
        self.block_insts + self.single_insts
    }

    /// Nanoseconds timed inside the stream.
    pub fn ns(&self) -> u64 {
        self.block_ns + self.inst_at_ns
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &StreamCost) {
        self.block_ns += other.block_ns;
        self.block_insts += other.block_insts;
        self.single_insts += other.single_insts;
        self.inst_at_calls += other.inst_at_calls;
        self.inst_at_ns += other.inst_at_ns;
    }
}

/// An [`InstructionStream`] that times the calls the core makes into it.
pub struct Timed<S> {
    inner: S,
    block_ns: u64,
    block_insts: u64,
    single_insts: u64,
    inst_at_calls: Cell<u64>,
    inst_at_ns: Cell<u64>,
}

impl<S: InstructionStream> Timed<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            block_ns: 0,
            block_insts: 0,
            single_insts: 0,
            inst_at_calls: Cell::new(0),
            inst_at_ns: Cell::new(0),
        }
    }

    /// The counters so far.
    pub fn cost(&self) -> StreamCost {
        StreamCost {
            block_ns: self.block_ns,
            block_insts: self.block_insts,
            single_insts: self.single_insts,
            inst_at_calls: self.inst_at_calls.get(),
            inst_at_ns: self.inst_at_ns.get(),
        }
    }
}

impl<S: InstructionStream> InstructionStream for Timed<S> {
    fn entry_pc(&self) -> u64 {
        self.inner.entry_pc()
    }

    fn next_inst(&mut self) -> Option<DynInst> {
        let i = self.inner.next_inst();
        self.single_insts += u64::from(i.is_some());
        i
    }

    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let t = Instant::now();
        let n = self.inner.next_block(out, max);
        self.block_ns += t.elapsed().as_nanos() as u64;
        self.block_insts += n as u64;
        n
    }

    fn inst_at(&self, pc: u64) -> StaticInst {
        let t = Instant::now();
        let s = self.inner.inst_at(pc);
        self.inst_at_ns
            .set(self.inst_at_ns.get() + t.elapsed().as_nanos() as u64);
        self.inst_at_calls.set(self.inst_at_calls.get() + 1);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_uarch::IterStream;

    #[test]
    fn counts_every_pull_and_decode() {
        let insts = (0..10_000u64).map(|i| DynInst::int(0x1000 + i * 2));
        let mut s = Timed::new(IterStream::new(0x1000, insts));
        assert!(s.next_inst().is_some());
        let mut buf = Vec::new();
        assert_eq!(s.next_block(&mut buf, 4096), 4096);
        s.inst_at(0x1000);
        s.inst_at(0x1002);
        let c = s.cost();
        assert_eq!(c.single_insts, 1);
        assert_eq!(c.block_insts, 4096);
        assert_eq!(c.pulls(), 4097);
        assert_eq!(c.inst_at_calls, 2);
    }
}
