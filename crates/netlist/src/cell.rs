//! Cell records stored in the netlist arena.

use crate::{CellId, CellKind};

/// One cell instance: a kind, its input signals and an optional
/// hierarchical instance name.
///
/// Cells are created through [`NetlistBuilder`](crate::NetlistBuilder)
/// and are immutable once the netlist is finished (scan insertion and
/// other transforms produce rewritten netlists rather than mutating in
/// place).
#[derive(Clone, PartialEq, Eq)]
pub struct Cell {
    shape: Shape,
    name: Option<Box<str>>,
}

/// Pins a cell keeps inside its record. Every flop kind fits (a reset
/// scan flop has five pins), as do the gates of the generated SOCs;
/// only wider n-ary gates and RAM macros box their pin list.
const INLINE_PINS: usize = 5;

/// A cell's kind and input pins in one 24-byte record. Inline pins fill
/// a fixed array whose used length is the variant, so the count shares
/// the tag byte. Unused slots hold a fixed filler, so the derived
/// equality is equality of kind and pins.
#[derive(Clone, PartialEq, Eq)]
enum Shape {
    Pins0(CellKind, [CellId; INLINE_PINS]),
    Pins1(CellKind, [CellId; INLINE_PINS]),
    Pins2(CellKind, [CellId; INLINE_PINS]),
    Pins3(CellKind, [CellId; INLINE_PINS]),
    Pins4(CellKind, [CellId; INLINE_PINS]),
    Pins5(CellKind, [CellId; INLINE_PINS]),
    Boxed(CellKind, Box<[CellId]>),
}

impl Shape {
    fn new(kind: CellKind, inputs: Vec<CellId>) -> Shape {
        if inputs.len() > INLINE_PINS {
            return Shape::Boxed(kind, inputs.into_boxed_slice());
        }
        let mut pins = [CellId::from_raw(0); INLINE_PINS];
        pins[..inputs.len()].copy_from_slice(&inputs);
        match inputs.len() {
            0 => Shape::Pins0(kind, pins),
            1 => Shape::Pins1(kind, pins),
            2 => Shape::Pins2(kind, pins),
            3 => Shape::Pins3(kind, pins),
            4 => Shape::Pins4(kind, pins),
            _ => Shape::Pins5(kind, pins),
        }
    }

    /// The used length of the inline array (meaningless for `Boxed`).
    /// Kept apart from the slicing so that the compiler turns it into a
    /// table lookup on the tag rather than a jump per variant.
    #[inline]
    fn inline_len(&self) -> usize {
        match self {
            Shape::Pins0(..) => 0,
            Shape::Pins1(..) => 1,
            Shape::Pins2(..) => 2,
            Shape::Pins3(..) => 3,
            Shape::Pins4(..) => 4,
            Shape::Pins5(..) | Shape::Boxed(..) => 5,
        }
    }

    #[inline]
    fn pins(&self) -> &[CellId] {
        let len = self.inline_len();
        match self {
            Shape::Pins0(_, p)
            | Shape::Pins1(_, p)
            | Shape::Pins2(_, p)
            | Shape::Pins3(_, p)
            | Shape::Pins4(_, p)
            | Shape::Pins5(_, p) => &p[..len],
            Shape::Boxed(_, p) => p,
        }
    }

    fn pins_mut(&mut self) -> &mut [CellId] {
        let len = self.inline_len();
        match self {
            Shape::Pins0(_, p)
            | Shape::Pins1(_, p)
            | Shape::Pins2(_, p)
            | Shape::Pins3(_, p)
            | Shape::Pins4(_, p)
            | Shape::Pins5(_, p) => &mut p[..len],
            Shape::Boxed(_, p) => p,
        }
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("kind", &self.kind())
            .field("inputs", &self.inputs())
            .field("name", &self.name)
            .finish()
    }
}

impl Cell {
    pub(crate) fn new(kind: CellKind, inputs: Vec<CellId>, name: Option<Box<str>>) -> Self {
        Cell {
            shape: Shape::new(kind, inputs),
            name,
        }
    }

    /// Re-connects one pin in place.
    pub(crate) fn set_input(&mut self, pin: usize, src: CellId) {
        self.shape.pins_mut()[pin] = src;
    }

    /// Assigns (or replaces) the instance name in place.
    pub(crate) fn set_name(&mut self, name: &str) {
        self.name = Some(name.into());
    }

    /// Heap bytes owned by this record beyond its own size: a boxed pin
    /// list and the name.
    pub(crate) fn heap_bytes(&self) -> usize {
        let pins = match &self.shape {
            Shape::Boxed(_, p) => std::mem::size_of_val::<[CellId]>(p),
            _ => 0,
        };
        pins + self.name.as_deref().map_or(0, str::len)
    }

    /// The primitive kind of this cell.
    #[inline]
    pub fn kind(&self) -> CellKind {
        match self.shape {
            Shape::Pins0(k, _)
            | Shape::Pins1(k, _)
            | Shape::Pins2(k, _)
            | Shape::Pins3(k, _)
            | Shape::Pins4(k, _)
            | Shape::Pins5(k, _)
            | Shape::Boxed(k, _) => k,
        }
    }

    /// Input signals in pin order (see [`CellKind`] pin documentation).
    #[inline]
    pub fn inputs(&self) -> &[CellId] {
        self.shape.pins()
    }

    /// Hierarchical instance name, when one was assigned.
    #[inline]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The data input of a flip-flop (`d` pin).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a flip-flop.
    #[inline]
    pub fn flop_d(&self) -> CellId {
        assert!(self.kind().is_flop(), "flop_d on non-flop {}", self.kind());
        self.inputs()[0]
    }

    /// The clock input of a clocked cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no clock pin.
    #[inline]
    pub fn clock(&self) -> CellId {
        let pin = self
            .kind()
            .clock_pin()
            .unwrap_or_else(|| panic!("clock() on unclocked {}", self.kind()));
        self.inputs()[pin]
    }

    /// The scan-in pin of a scan flop.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a scan flop.
    #[inline]
    pub fn scan_in(&self) -> CellId {
        assert!(self.kind().is_scan_flop(), "scan_in on {}", self.kind());
        self.inputs()[3]
    }

    /// The scan-enable pin of a scan flop.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a scan flop.
    #[inline]
    pub fn scan_enable(&self) -> CellId {
        assert!(self.kind().is_scan_flop(), "scan_enable on {}", self.kind());
        self.inputs()[2]
    }

    /// Asynchronous reset pin, if this kind has one.
    #[inline]
    pub fn reset(&self) -> Option<CellId> {
        match self.kind() {
            CellKind::DffRl | CellKind::DffRh => Some(self.inputs()[2]),
            CellKind::SdffRl => Some(self.inputs()[4]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_accessors() {
        let d = CellId::from_index(0);
        let clk = CellId::from_index(1);
        let se = CellId::from_index(2);
        let si = CellId::from_index(3);
        let rstn = CellId::from_index(4);
        let cell = Cell::new(
            CellKind::SdffRl,
            vec![d, clk, se, si, rstn],
            Some("u_ff".into()),
        );
        assert_eq!(cell.flop_d(), d);
        assert_eq!(cell.clock(), clk);
        assert_eq!(cell.scan_enable(), se);
        assert_eq!(cell.scan_in(), si);
        assert_eq!(cell.reset(), Some(rstn));
        assert_eq!(cell.name(), Some("u_ff"));
    }

    #[test]
    #[should_panic(expected = "flop_d on non-flop")]
    fn flop_accessor_rejects_gates() {
        let a = CellId::from_index(0);
        Cell::new(CellKind::And, vec![a, a], None).flop_d();
    }

    #[test]
    fn a_cell_record_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 40);
    }

    #[test]
    fn reset_is_none_for_plain_dff() {
        let d = CellId::from_index(0);
        let clk = CellId::from_index(1);
        let cell = Cell::new(CellKind::Dff, vec![d, clk], None);
        assert_eq!(cell.reset(), None);
    }
}
