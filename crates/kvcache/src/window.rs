//! Id-indexed tables that hold only a window of ids.
//!
//! A run's per-request tables are indexed by request id, but at any moment
//! only the requests in flight have state worth keeping: the ones before
//! them are done, the ones after them are untouched. [`IdWindow`] keeps the
//! entries for ids `[base, end)` in one `Vec` and answers every other id
//! with a value the caller supplies, so a table costs O(ids in flight),
//! not O(ids in the trace).

/// Where an id falls relative to an [`IdWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot<'a, T> {
    /// Below the window: retired.
    Retired,
    /// Inside the window: its entry.
    Live(&'a T),
    /// At or past the window's end: never written.
    Untouched,
}

/// An id-indexed table over the ids `[base, end)`.
///
/// `slots[origin + k]` holds id `base + k`; the `origin` slots before it
/// are dead entries that [`retire_front`](Self::retire_front) left
/// behind, compacted all at once when they outnumber the live ones, so
/// retiring stays amortised O(1). A write outside the window grows it, in
/// either direction, filling the ids between with the caller's blanks.
/// Growth is out of line: the common write lands inside the window.
///
/// ```
/// use tdpipe_kvcache::{IdWindow, Slot};
///
/// let mut w = IdWindow::new();
/// *w.entry(0, |_| 0u32) = 7;
/// *w.entry(2, |_| 0) = 9; // id 1 is filled with a blank
/// assert_eq!(w.slot(1), Slot::Live(&0));
/// w.retire_front(|&v| v != 9); // ids 0 and 1 retire
/// assert_eq!((w.base(), w.end()), (2, 3));
/// assert_eq!(w.read(0, u32::MAX, 0), u32::MAX);
/// assert_eq!(w.read(5, u32::MAX, 0), 0);
/// assert_eq!(w.high_water(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdWindow<T> {
    slots: Vec<T>,
    /// Index in `slots` of id `base`.
    origin: usize,
    /// The oldest id in the window.
    base: usize,
    /// The widest span the window ever had.
    high_water: usize,
}

impl<T: Copy> IdWindow<T> {
    /// An empty window at id 0.
    pub const fn new() -> Self {
        IdWindow {
            slots: Vec::new(),
            origin: 0,
            base: 0,
            high_water: 0,
        }
    }

    /// Make room for a window spanning ids `0..n` without reallocating:
    /// for tables whose ids are written out of order, where the window
    /// spans most of them anyway.
    pub fn reserve(&mut self, n: usize) {
        self.slots.reserve(n.saturating_sub(self.slots.len()));
    }

    /// The oldest id in the window.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// One past the newest id in the window.
    #[inline]
    pub fn end(&self) -> usize {
        self.base + self.span()
    }

    /// Ids in the window.
    #[inline]
    pub fn span(&self) -> usize {
        self.slots.len() - self.origin
    }

    /// The widest span the window ever had: the table's peak size, in
    /// entries.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Where `id` falls, with its entry if it is in the window.
    #[inline]
    pub fn slot(&self, id: usize) -> Slot<'_, T> {
        // An id below the base wraps past every live offset.
        match self.slots[self.origin..].get(id.wrapping_sub(self.base)) {
            Some(v) => Slot::Live(v),
            None if id < self.base => Slot::Retired,
            None => Slot::Untouched,
        }
    }

    /// `id`'s entry: `retired` below the window, `untouched` past it.
    #[inline]
    pub fn read(&self, id: usize, retired: T, untouched: T) -> T {
        match self.slot(id) {
            Slot::Retired => retired,
            Slot::Live(&v) => v,
            Slot::Untouched => untouched,
        }
    }

    /// `id`'s entry, if it is in the window.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        let origin = self.origin;
        self.slots[origin..].get_mut(id.wrapping_sub(self.base))
    }

    /// `id`'s entry, growing the window to hold it. `fill` gives the entry
    /// of every id the growth adds (`id` included): ids below the old base
    /// were retired, ids at or past the old end untouched.
    #[inline]
    pub fn entry(&mut self, id: usize, fill: impl FnMut(usize) -> T) -> &mut T {
        if id < self.base || id >= self.end() {
            self.grow(id, fill);
        }
        let k = self.origin + (id - self.base);
        &mut self.slots[k]
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, id: usize, mut fill: impl FnMut(usize) -> T) {
        let end = self.end();
        if id == end {
            // The common growth: the next id in order.
            self.slots.push(fill(id));
        } else if id > end {
            self.slots.extend((end..=id).map(fill));
        } else {
            let need = self.base - id;
            if need > self.origin {
                // Not enough dead slots below: move the window up in one
                // splice, then reuse every slot below it.
                let extra = need - self.origin;
                let blank = fill(id);
                self.slots.splice(0..0, std::iter::repeat_n(blank, extra));
                self.origin += extra;
            }
            self.origin -= need;
            for (k, slot) in self.slots[self.origin..self.origin + need].iter_mut().enumerate() {
                *slot = fill(id + k);
            }
            self.base = id;
        }
        self.high_water = self.high_water.max(self.span());
    }

    /// Retire entries from the front while `dead` holds for them; the base
    /// advances past them, and reads below it return the caller's retired
    /// value from then on.
    pub fn retire_front(&mut self, mut dead: impl FnMut(&T) -> bool) {
        let live = &self.slots[self.origin..];
        let gone = live.iter().take_while(|v| dead(v)).count();
        if gone == 0 {
            return;
        }
        self.origin += gone;
        self.base += gone;
        if self.origin > self.span() {
            self.slots.drain(..self.origin);
            self.origin = 0;
        }
    }

    /// Empty the window back to id 0, keeping its allocation and high-water
    /// mark.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.origin = 0;
        self.base = 0;
    }
}
