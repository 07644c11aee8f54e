//! The immutable netlist arena and its derived views.

use crate::{Cell, CellId, CellKind};
use std::mem::size_of;

/// A validated, immutable gate-level netlist.
///
/// Produced by [`NetlistBuilder::finish`](crate::NetlistBuilder::finish);
/// construction is the only mutation path, so every `Netlist` is
/// structurally sound: arities match, no dangling references, no
/// combinational cycles.
///
/// # Layout
///
/// A netlist is cached per design and kept for the life of a daemon,
/// so it is laid out compactly, in a few exactly-sized arrays:
///
/// - cells in one array, each keeping up to five input pins inline
///   (every gate and flop of the generated SOCs), with only wider
///   n-ary gates and RAM macros boxing their pin list;
/// - fanouts as one CSR pair, per-cell offsets into a single sink
///   array in id order;
/// - the name index as the named cells' ids sorted by name, searched by
///   bisection.
///
/// [`Netlist::approx_bytes`] sums what these arrays hold on the heap.
///
/// # Examples
///
/// ```
/// use occ_netlist::{NetlistBuilder, CellKind};
/// # fn main() -> Result<(), occ_netlist::BuildError> {
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let q = b.not(a);
/// b.output("q", q);
/// let nl = b.finish()?;
/// assert_eq!(nl.cell(q).kind(), CellKind::Not);
/// assert_eq!(nl.fanouts(a), &[q]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: Box<str>,
    cells: Vec<Cell>,
    primary_inputs: Vec<CellId>,
    primary_outputs: Vec<CellId>,
    fanouts: Fanouts,
    levelization: Levelization,
    /// Named cells sorted by name, one per name: where a name repeats,
    /// the highest id carries it.
    by_name: Vec<CellId>,
    /// [`Netlist::approx_bytes`], summed once: the arrays never change.
    heap_bytes: usize,
}

/// Fanout lists in CSR form: the sinks of cell `i` are
/// `sinks[start[i]..start[i + 1]]`, in id order, a sink that reads the
/// cell on several pins listed once per pin.
#[derive(Debug, Clone)]
pub(crate) struct Fanouts {
    start: Vec<u32>,
    sinks: Vec<CellId>,
}

impl Fanouts {
    /// Inverts the cells' pin lists.
    pub(crate) fn of(cells: &[Cell]) -> Fanouts {
        let mut start = vec![0u32; cells.len() + 1];
        for cell in cells {
            for &src in cell.inputs() {
                start[src.index() + 1] += 1;
            }
        }
        for i in 0..cells.len() {
            start[i + 1] += start[i];
        }
        let mut fill: Vec<u32> = start[..cells.len()].to_vec();
        let mut sinks = vec![CellId::from_raw(0); start[cells.len()] as usize];
        for (i, cell) in cells.iter().enumerate() {
            for &src in cell.inputs() {
                let slot = &mut fill[src.index()];
                sinks[*slot as usize] = CellId::from_index(i);
                *slot += 1;
            }
        }
        Fanouts { start, sinks }
    }

    /// The sinks of the cell at `index`.
    #[inline]
    pub(crate) fn of_cell(&self, index: usize) -> &[CellId] {
        &self.sinks[self.start[index] as usize..self.start[index + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        self.start.capacity() * size_of::<u32>() + self.sinks.capacity() * size_of::<CellId>()
    }
}

/// Topological ordering of the combinational cells of a netlist.
///
/// Sequential cells (flops, latches, clock gates, RAM) and sources
/// (inputs, ties) sit at level 0; each combinational cell is one level
/// above its deepest input. [`Levelization::order`] lists combinational
/// cells in a valid single-pass evaluation order.
#[derive(Debug, Clone, Default)]
pub struct Levelization {
    order: Vec<CellId>,
    level: Vec<u32>,
    max_level: u32,
}

impl Levelization {
    pub(crate) fn new(mut order: Vec<CellId>, mut level: Vec<u32>, max_level: u32) -> Self {
        order.shrink_to_fit();
        level.shrink_to_fit();
        Levelization {
            order,
            level,
            max_level,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.order.capacity() * size_of::<CellId>() + self.level.capacity() * size_of::<u32>()
    }

    /// Combinational cells in dependency order (inputs before outputs).
    #[inline]
    pub fn order(&self) -> &[CellId] {
        &self.order
    }

    /// Level of a cell (0 for sources and sequential cells).
    #[inline]
    pub fn level(&self, id: CellId) -> u32 {
        self.level[id.index()]
    }

    /// The deepest combinational level in the netlist.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Per-cell levels indexed by [`CellId::index`] — the dense view
    /// compiled simulation kernels flatten into their own arrays
    /// (equivalent to calling [`Levelization::level`] per cell).
    #[inline]
    pub fn levels(&self) -> &[u32] {
        &self.level
    }
}

impl Netlist {
    pub(crate) fn assemble(
        name: Box<str>,
        mut cells: Vec<Cell>,
        mut primary_inputs: Vec<CellId>,
        mut primary_outputs: Vec<CellId>,
        fanouts: Fanouts,
        levelization: Levelization,
    ) -> Self {
        cells.shrink_to_fit();
        primary_inputs.shrink_to_fit();
        primary_outputs.shrink_to_fit();
        let name_of = |id: &CellId| cells[id.index()].name();
        let mut by_name: Vec<CellId> = (0..cells.len())
            .map(CellId::from_index)
            .filter(|id| name_of(id).is_some())
            .collect();
        // Highest id first within a name, so deduplication keeps it.
        by_name.sort_unstable_by(|a, b| name_of(a).cmp(&name_of(b)).then(b.cmp(a)));
        by_name.dedup_by(|a, b| name_of(a) == name_of(b));
        by_name.shrink_to_fit();
        let heap_bytes = name.len()
            + cells.capacity() * size_of::<Cell>()
            + cells.iter().map(Cell::heap_bytes).sum::<usize>()
            + (primary_inputs.capacity() + primary_outputs.capacity() + by_name.capacity())
                * size_of::<CellId>()
            + fanouts.heap_bytes()
            + levelization.heap_bytes();
        Netlist {
            name,
            cells,
            primary_inputs,
            primary_outputs,
            fanouts,
            levelization,
            by_name,
            heap_bytes,
        }
    }

    /// Approximate heap bytes this netlist owns: every array at its
    /// capacity, boxed pin lists and name strings (not the `Netlist`
    /// value itself). What a cache that keeps the netlist is charged.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// The design name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells (including inputs, outputs and ties).
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the netlist has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Iterates over `(id, cell)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// All cell ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len()).map(CellId::from_index)
    }

    /// Primary inputs in declaration order.
    #[inline]
    pub fn primary_inputs(&self) -> &[CellId] {
        &self.primary_inputs
    }

    /// Primary outputs in declaration order.
    #[inline]
    pub fn primary_outputs(&self) -> &[CellId] {
        &self.primary_outputs
    }

    /// Cells that consume the output of `id`, in id order.
    #[inline]
    pub fn fanouts(&self, id: CellId) -> &[CellId] {
        self.fanouts.of_cell(id.index())
    }

    /// Total number of fanout edges (the sum of all per-cell fanout
    /// list lengths) — lets CSR compilers size their flattened edge
    /// arrays in one allocation.
    pub fn fanout_edge_count(&self) -> usize {
        self.fanouts.sinks.len()
    }

    /// Total number of fanin edges (the sum of all cell input counts).
    pub fn fanin_edge_count(&self) -> usize {
        self.cells.iter().map(|c| c.inputs().len()).sum()
    }

    /// The combinational levelization computed at build time.
    #[inline]
    pub fn levelization(&self) -> &Levelization {
        &self.levelization
    }

    /// Looks up a cell by its instance name.
    ///
    /// Where several cells carry the name, the one with the highest id
    /// is returned.
    pub fn find(&self, name: &str) -> Option<CellId> {
        let i = self
            .by_name
            .binary_search_by(|id| self.cells[id.index()].name().cmp(&Some(name)))
            .ok()?;
        Some(self.by_name[i])
    }

    /// Iterates over all flip-flop cells.
    pub fn flops(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.iter().filter(|(_, c)| c.kind().is_flop())
    }

    /// Iterates over all cells of one kind.
    pub fn cells_of_kind(&self, kind: CellKind) -> impl Iterator<Item = CellId> + '_ {
        self.iter()
            .filter(move |(_, c)| c.kind() == kind)
            .map(|(id, _)| id)
    }

    /// Number of "logic gates" in the data-book sense: everything except
    /// primary inputs/outputs and tie cells. This is the count the paper
    /// uses when it states the CPF "consists of ten standard digital
    /// logic gates".
    pub fn logic_gate_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| {
                !matches!(
                    c.kind(),
                    CellKind::Input
                        | CellKind::Output
                        | CellKind::Tie0
                        | CellKind::Tie1
                        | CellKind::TieX
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use crate::{CellKind, NetlistBuilder};

    #[test]
    fn fanout_lists_are_complete() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and2(a, x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        assert_eq!(nl.fanouts(a), &[x, y]);
        assert_eq!(nl.fanouts(x), &[y]);
        assert_eq!(nl.fanouts(y).len(), 1); // the output marker
    }

    #[test]
    fn levelization_orders_dependencies() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let bb = b.input("b");
        let n1 = b.and2(a, bb);
        let n2 = b.or2(n1, a);
        let n3 = b.xor2(n2, n1);
        b.output("o", n3);
        let nl = b.finish().unwrap();
        let lev = nl.levelization();
        assert_eq!(lev.level(a), 0);
        assert_eq!(lev.level(n1), 1);
        assert_eq!(lev.level(n2), 2);
        assert_eq!(lev.level(n3), 3);
        assert_eq!(lev.max_level(), 4); // the PO marker sits above n3
        let pos: std::collections::HashMap<_, _> = lev
            .order()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        assert!(pos[&n1] < pos[&n2]);
        assert!(pos[&n2] < pos[&n3]);
    }

    #[test]
    fn flop_breaks_levelization_cycle() {
        // q feeds back through an inverter into its own d: legal because
        // the flop is a sequential boundary.
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let ff = b.dff_uninit(clk);
        let d = b.not(ff);
        b.set_flop_d(ff, d);
        b.output("q", ff);
        let nl = b.finish().unwrap();
        assert_eq!(nl.levelization().level(ff), 0);
        assert_eq!(nl.levelization().level(d), 1);
    }

    #[test]
    fn find_by_name() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let n = b.not(a);
        b.name_cell(n, "u_inv");
        b.output("o", n);
        let nl = b.finish().unwrap();
        assert_eq!(nl.find("u_inv"), Some(n));
        assert_eq!(nl.find("a"), Some(a));
        assert_eq!(nl.find("missing"), None);
    }

    #[test]
    fn compact_layout_keeps_names_fanouts_and_wide_pins() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let clk = b.input("clk");
        // Two cells named alike: the later one answers to the name.
        let first = b.not(a);
        b.name_cell(first, "dup");
        let second = b.buf(c);
        b.name_cell(second, "dup");
        // One sink reading `a` on two pins.
        let both = b.xor2(a, a);
        // Two cells wider than the inline pin limit.
        let wide_pins = [a, c, first, second, both, c, first];
        let wide = b.and_n(&wide_pins);
        let (ram, outs) = b.ram(clk, c, &[a, first], &[second, both]);
        b.output("o", wide);
        b.output("r", outs[1]);
        let nl = b.finish().unwrap();

        assert_eq!(nl.find("dup"), Some(second));
        assert_eq!(nl.find("a"), Some(a));
        assert_eq!(nl.fanouts(a), &[first, both, both, wide, ram]);
        assert_eq!(nl.fanouts(first), &[wide, wide, ram]);
        assert_eq!(nl.fanout_edge_count(), nl.fanin_edge_count());
        assert_eq!(nl.cell(wide).inputs(), &wide_pins);
        assert_eq!(nl.cell(ram).inputs(), &[clk, c, a, first, second, both]);
        assert_eq!(nl.cell(ram).clock(), clk);
    }

    #[test]
    fn logic_gate_count_excludes_ports_and_ties() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let t1 = b.tie1();
        let g = b.and2(a, t1);
        b.output("o", g);
        let nl = b.finish().unwrap();
        assert_eq!(nl.logic_gate_count(), 1);
        assert_eq!(nl.cells_of_kind(CellKind::And).count(), 1);
    }
}
