//! Incremental netlist construction with deferred validation.

use crate::error::{BuildError, ValidateError};
use crate::netlist::{Fanouts, Levelization};
use crate::{Cell, CellId, CellKind, Netlist};
use std::collections::VecDeque;

/// Sentinel for a not-yet-connected pin (patched via
/// [`NetlistBuilder::set_input`] before [`NetlistBuilder::finish`]).
const UNCONNECTED: CellId = CellId::from_raw(u32::MAX);

/// Builder for [`Netlist`], providing one constructor per primitive plus
/// generic escape hatches.
///
/// Sequential feedback loops are built with the `*_uninit` constructors
/// followed by [`NetlistBuilder::set_flop_d`]:
///
/// ```
/// use occ_netlist::NetlistBuilder;
/// # fn main() -> Result<(), occ_netlist::BuildError> {
/// let mut b = NetlistBuilder::new("toggle");
/// let clk = b.input("clk");
/// let ff = b.dff_uninit(clk);
/// let nd = b.not(ff);
/// b.set_flop_d(ff, nd);
/// b.output("q", ff);
/// let nl = b.finish()?;
/// assert_eq!(nl.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: Box<str>,
    cells: Vec<Cell>,
    primary_inputs: Vec<CellId>,
    primary_outputs: Vec<CellId>,
}

impl NetlistBuilder {
    /// Starts a new design with the given name.
    pub fn new(name: &str) -> Self {
        NetlistBuilder {
            name: name.into(),
            cells: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// Re-opens a finished netlist for transformation (scan insertion,
    /// CPF attachment). Cell ids are preserved.
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let mut b = NetlistBuilder::new(netlist.name());
        b.cells = netlist.iter().map(|(_, cell)| cell.clone()).collect();
        for (id, cell) in netlist.iter() {
            match cell.kind() {
                CellKind::Input => b.primary_inputs.push(id),
                CellKind::Output => b.primary_outputs.push(id),
                _ => {}
            }
        }
        b
    }

    /// Replaces the kind and inputs of an existing cell (keeps its name).
    /// Primary input/output bookkeeping follows the change.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace_cell(&mut self, id: CellId, kind: CellKind, inputs: Vec<CellId>) {
        let old = &self.cells[id.index()];
        let was_input = old.kind() == CellKind::Input;
        let was_output = old.kind() == CellKind::Output;
        let name = old.name().map(Into::into);
        self.cells[id.index()] = Cell::new(kind, inputs, name);
        if was_input && kind != CellKind::Input {
            self.primary_inputs.retain(|&p| p != id);
        }
        if !was_input && kind == CellKind::Input {
            self.primary_inputs.push(id);
        }
        if was_output && kind != CellKind::Output {
            self.primary_outputs.retain(|&p| p != id);
        }
        if !was_output && kind == CellKind::Output {
            self.primary_outputs.push(id);
        }
    }

    /// Number of cells created so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells have been created yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Generic cell constructor. Prefer the typed helpers below.
    pub fn push(&mut self, kind: CellKind, inputs: Vec<CellId>) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.cells.push(Cell::new(kind, inputs, None));
        if kind == CellKind::Input {
            self.primary_inputs.push(id);
        }
        if kind == CellKind::Output {
            self.primary_outputs.push(id);
        }
        id
    }

    /// Assigns (or replaces) the instance name of a cell.
    pub fn name_cell(&mut self, id: CellId, name: &str) {
        self.cells[id.index()].set_name(name);
    }

    /// Re-connects pin `pin` of `cell` to `src`. Used to close sequential
    /// feedback loops and by netlist transforms.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the cell.
    pub fn set_input(&mut self, cell: CellId, pin: usize, src: CellId) {
        let cell = &mut self.cells[cell.index()];
        assert!(
            pin < cell.inputs().len(),
            "pin {pin} out of range for {} with {} pins",
            cell.kind(),
            cell.inputs().len()
        );
        cell.set_input(pin, src);
    }

    /// Connects the `d` pin of a flop created with a `*_uninit`
    /// constructor.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a flip-flop.
    pub fn set_flop_d(&mut self, ff: CellId, d: CellId) {
        assert!(
            self.cells[ff.index()].kind().is_flop(),
            "set_flop_d on non-flop"
        );
        self.set_input(ff, 0, d);
    }

    /// The kind of an already-created cell.
    pub fn kind(&self, id: CellId) -> CellKind {
        self.cells[id.index()].kind()
    }

    /// The current inputs of an already-created cell.
    pub fn inputs(&self, id: CellId) -> &[CellId] {
        self.cells[id.index()].inputs()
    }

    // --- ports and constants -------------------------------------------

    /// Declares a named primary input.
    pub fn input(&mut self, name: &str) -> CellId {
        let id = self.push(CellKind::Input, Vec::new());
        self.name_cell(id, name);
        id
    }

    /// Declares a named primary output fed by `src`.
    pub fn output(&mut self, name: &str, src: CellId) -> CellId {
        let id = self.push(CellKind::Output, vec![src]);
        self.name_cell(id, name);
        id
    }

    /// Constant `0`.
    pub fn tie0(&mut self) -> CellId {
        self.push(CellKind::Tie0, Vec::new())
    }

    /// Constant `1`.
    pub fn tie1(&mut self) -> CellId {
        self.push(CellKind::Tie1, Vec::new())
    }

    /// Constant `X` (uncontrolled source).
    pub fn tiex(&mut self) -> CellId {
        self.push(CellKind::TieX, Vec::new())
    }

    // --- combinational gates -------------------------------------------

    /// Buffer.
    pub fn buf(&mut self, a: CellId) -> CellId {
        self.push(CellKind::Buf, vec![a])
    }

    /// Inverter.
    pub fn not(&mut self, a: CellId) -> CellId {
        self.push(CellKind::Not, vec![a])
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: CellId, b: CellId) -> CellId {
        self.push(CellKind::And, vec![a, b])
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: CellId, b: CellId) -> CellId {
        self.push(CellKind::Nand, vec![a, b])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: CellId, b: CellId) -> CellId {
        self.push(CellKind::Or, vec![a, b])
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: CellId, b: CellId) -> CellId {
        self.push(CellKind::Nor, vec![a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: CellId, b: CellId) -> CellId {
        self.push(CellKind::Xor, vec![a, b])
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: CellId, b: CellId) -> CellId {
        self.push(CellKind::Xnor, vec![a, b])
    }

    /// N-ary AND (≥ 2 inputs).
    pub fn and_n(&mut self, inputs: &[CellId]) -> CellId {
        self.push(CellKind::And, inputs.to_vec())
    }

    /// N-ary OR (≥ 2 inputs).
    pub fn or_n(&mut self, inputs: &[CellId]) -> CellId {
        self.push(CellKind::Or, inputs.to_vec())
    }

    /// N-ary XOR (≥ 2 inputs).
    pub fn xor_n(&mut self, inputs: &[CellId]) -> CellId {
        self.push(CellKind::Xor, inputs.to_vec())
    }

    /// Two-to-one mux: `sel=0` selects `d0`.
    pub fn mux2(&mut self, sel: CellId, d0: CellId, d1: CellId) -> CellId {
        self.push(CellKind::Mux2, vec![sel, d0, d1])
    }

    // --- sequential cells ----------------------------------------------

    /// D flip-flop.
    pub fn dff(&mut self, d: CellId, clk: CellId) -> CellId {
        self.push(CellKind::Dff, vec![d, clk])
    }

    /// D flip-flop with its data pin left unconnected (close the loop
    /// with [`NetlistBuilder::set_flop_d`]).
    pub fn dff_uninit(&mut self, clk: CellId) -> CellId {
        self.push(CellKind::Dff, vec![UNCONNECTED, clk])
    }

    /// D flip-flop with asynchronous active-low reset.
    pub fn dff_rl(&mut self, d: CellId, clk: CellId, rstn: CellId) -> CellId {
        self.push(CellKind::DffRl, vec![d, clk, rstn])
    }

    /// D flip-flop with asynchronous active-high reset.
    pub fn dff_rh(&mut self, d: CellId, clk: CellId, rst: CellId) -> CellId {
        self.push(CellKind::DffRh, vec![d, clk, rst])
    }

    /// Mux-scan flip-flop (`se=1` captures `si`).
    pub fn sdff(&mut self, d: CellId, clk: CellId, se: CellId, si: CellId) -> CellId {
        self.push(CellKind::Sdff, vec![d, clk, se, si])
    }

    /// Mux-scan flip-flop with asynchronous active-low reset.
    pub fn sdff_rl(
        &mut self,
        d: CellId,
        clk: CellId,
        se: CellId,
        si: CellId,
        rstn: CellId,
    ) -> CellId {
        self.push(CellKind::SdffRl, vec![d, clk, se, si, rstn])
    }

    /// Transparent-low latch.
    pub fn latch_low(&mut self, d: CellId, en: CellId) -> CellId {
        self.push(CellKind::LatchLow, vec![d, en])
    }

    /// Integrated clock-gating cell (glitch-free AND of `clk` and a
    /// latched `en`).
    pub fn clock_gate(&mut self, clk: CellId, en: CellId) -> CellId {
        self.push(CellKind::ClockGate, vec![clk, en])
    }

    /// Synchronous RAM macro plus its read-port cells. Returns
    /// `(handle, read_bits)`.
    ///
    /// # Panics
    ///
    /// Panics if the pin groups don't match `addr.len()`/`din.len()` or
    /// exceed `u8` widths.
    pub fn ram(
        &mut self,
        clk: CellId,
        we: CellId,
        addr: &[CellId],
        din: &[CellId],
    ) -> (CellId, Vec<CellId>) {
        let addr_bits = u8::try_from(addr.len()).expect("addr width exceeds u8");
        let data_bits = u8::try_from(din.len()).expect("data width exceeds u8");
        let mut inputs = Vec::with_capacity(2 + addr.len() + din.len());
        inputs.push(clk);
        inputs.push(we);
        inputs.extend_from_slice(addr);
        inputs.extend_from_slice(din);
        let handle = self.push(
            CellKind::Ram {
                addr_bits,
                data_bits,
            },
            inputs,
        );
        let outs = (0..data_bits)
            .map(|bit| self.push(CellKind::RamOut { bit }, vec![handle]))
            .collect();
        (handle, outs)
    }

    // --- finish ----------------------------------------------------------

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns every structural defect found: dangling/unconnected pins,
    /// arity mismatches, combinational loops and RAM wiring mistakes.
    pub fn finish(self) -> Result<Netlist, BuildError> {
        let mut errors = Vec::new();
        let n = self.cells.len();

        for (i, cell) in self.cells.iter().enumerate() {
            let id = CellId::from_index(i);
            match cell.kind().fixed_arity() {
                Some(want) if cell.inputs().len() != want => {
                    errors.push(ValidateError::BadArity {
                        cell: id,
                        kind: cell.kind(),
                        got: cell.inputs().len(),
                    });
                }
                None if cell.inputs().len() < cell.kind().min_arity() => {
                    errors.push(ValidateError::BadArity {
                        cell: id,
                        kind: cell.kind(),
                        got: cell.inputs().len(),
                    });
                }
                _ => {}
            }
            for &src in cell.inputs() {
                if src.index() >= n {
                    errors.push(ValidateError::DanglingInput {
                        cell: id,
                        input: src,
                    });
                }
            }
            if let CellKind::RamOut { bit } = cell.kind() {
                match cell.inputs().first() {
                    Some(&h) if h.index() < n => match self.cells[h.index()].kind() {
                        CellKind::Ram { data_bits, .. } => {
                            if bit >= data_bits {
                                errors.push(ValidateError::RamOutBitOutOfRange {
                                    cell: id,
                                    bit,
                                    data_bits,
                                });
                            }
                        }
                        _ => errors.push(ValidateError::RamOutWithoutRam { cell: id }),
                    },
                    _ => {} // dangling already reported
                }
            }
        }
        // RAM handles must only feed RamOut cells.
        for (i, cell) in self.cells.iter().enumerate() {
            if matches!(cell.kind(), CellKind::RamOut { .. }) {
                continue;
            }
            for &src in cell.inputs() {
                if src.index() < n && matches!(self.cells[src.index()].kind(), CellKind::Ram { .. })
                {
                    errors.push(ValidateError::RamHandleMisused {
                        cell: CellId::from_index(i),
                    });
                }
            }
        }

        if !errors.is_empty() {
            return Err(BuildError::new(errors));
        }

        let fanouts = Fanouts::of(&self.cells);
        let lev = levelize(&self.cells, &fanouts).map_err(|e| BuildError::new(vec![e]))?;
        Ok(Netlist::assemble(
            self.name,
            self.cells,
            self.primary_inputs,
            self.primary_outputs,
            fanouts,
            lev,
        ))
    }
}

/// Kahn's algorithm over the combinational subgraph. Sequential cells and
/// sources are level 0 and do not propagate dependencies.
fn levelize(cells: &[Cell], fanouts: &Fanouts) -> Result<Levelization, ValidateError> {
    let n = cells.len();
    let is_comb: Vec<bool> = cells
        .iter()
        .map(|c| c.kind().is_combinational() && !c.inputs().is_empty())
        .collect();

    let mut indegree = vec![0u32; n];
    let mut comb_total = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        if !is_comb[i] {
            continue;
        }
        comb_total += 1;
        indegree[i] = cell.inputs().iter().filter(|s| is_comb[s.index()]).count() as u32;
    }

    let mut level = vec![0u32; n];
    let mut order = Vec::with_capacity(comb_total);
    let mut queue: VecDeque<u32> = (0..n as u32)
        .filter(|&i| is_comb[i as usize] && indegree[i as usize] == 0)
        .collect();

    let mut max_level = 0;
    let mut processed = 0usize;
    while let Some(i) = queue.pop_front() {
        let iu = i as usize;
        let lvl = cells[iu]
            .inputs()
            .iter()
            .map(|s| level[s.index()])
            .max()
            .unwrap_or(0)
            + 1;
        level[iu] = lvl;
        max_level = max_level.max(lvl);
        order.push(CellId::from_index(iu));
        processed += 1;
        for &f in fanouts.of_cell(iu) {
            let f = f.index();
            if !is_comb[f] {
                continue;
            }
            indegree[f] -= 1;
            if indegree[f] == 0 {
                queue.push_back(f as u32);
            }
        }
    }

    if processed != comb_total {
        let cell = (0..n)
            .find(|&i| is_comb[i] && indegree[i] > 0)
            .map(CellId::from_index)
            .expect("unprocessed comb cell must exist");
        return Err(ValidateError::CombinationalLoop { cell });
    }
    Ok(Levelization::new(order, level, max_level))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconnected_pin_is_reported() {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let ff = b.dff_uninit(clk);
        b.output("q", ff);
        let err = b.finish().unwrap_err();
        assert!(matches!(
            err.errors()[0],
            ValidateError::DanglingInput { .. }
        ));
    }

    #[test]
    fn combinational_loop_is_reported() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        // g1 = and(a, g2); g2 = not(g1) — a comb loop.
        let g1 = b.and2(a, a); // placeholder second pin, patched below
        let g2 = b.not(g1);
        b.set_input(g1, 1, g2);
        b.output("o", g2);
        let err = b.finish().unwrap_err();
        assert!(matches!(
            err.errors()[0],
            ValidateError::CombinationalLoop { .. }
        ));
    }

    #[test]
    fn bad_arity_is_reported() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.push(CellKind::Mux2, vec![a, a]);
        let err = b.finish().unwrap_err();
        assert!(matches!(err.errors()[0], ValidateError::BadArity { .. }));
    }

    #[test]
    fn nary_gate_needs_two_inputs() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.push(CellKind::And, vec![a]);
        let err = b.finish().unwrap_err();
        assert!(matches!(err.errors()[0], ValidateError::BadArity { .. }));
    }

    #[test]
    fn ram_wiring_is_checked() {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let we = b.input("we");
        let a0 = b.input("a0");
        let d0 = b.input("d0");
        let (handle, outs) = b.ram(clk, we, &[a0], &[d0]);
        // Feeding the handle into a gate is illegal.
        let bad = b.and2(handle, d0);
        b.output("o", bad);
        b.output("r", outs[0]);
        let err = b.finish().unwrap_err();
        assert!(err
            .errors()
            .iter()
            .any(|e| matches!(e, ValidateError::RamHandleMisused { .. })));
    }

    #[test]
    fn ram_out_bit_range_checked() {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let we = b.input("we");
        let a0 = b.input("a0");
        let d0 = b.input("d0");
        let (handle, _outs) = b.ram(clk, we, &[a0], &[d0]);
        let bad = b.push(CellKind::RamOut { bit: 5 }, vec![handle]);
        b.output("o", bad);
        let err = b.finish().unwrap_err();
        assert!(err
            .errors()
            .iter()
            .any(|e| matches!(e, ValidateError::RamOutBitOutOfRange { .. })));
    }

    #[test]
    fn valid_design_builds() {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let d = b.input("d");
        let se = b.input("se");
        let si = b.input("si");
        let ff = b.sdff(d, clk, se, si);
        b.output("q", ff);
        let nl = b.finish().unwrap();
        assert_eq!(nl.len(), 6);
        assert_eq!(nl.flops().count(), 1);
    }
}
