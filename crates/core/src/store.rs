//! Stores that widen.
//!
//! A [`Store`] holds one value per cell in the narrowest of three element
//! types that holds every value written so far. A value that does not fit
//! rewrites the whole store once in the narrowest wider element that holds
//! it, keeping the store's capacity in cells; a store never narrows. It is
//! the one widening store of core (DESIGN.md §11):
//!
//! - a trace's cell table is a store of rows, 6, 8 or 12 bytes each, that
//!   widen for ports and seqs and for a block of cells spanning 2¹⁶ slots
//!   (`trace.rs`);
//! - a run log's delay and plane columns are stores of `u32`s, at 1, 2 or 4
//!   bytes each, zero-extended when they widen (`record.rs`).
//!
//! A store has no "absent": a log that needs one keeps `value + 1` and
//! reads 0 as absent. A reader matches the element type once per read, or
//! once per pass (`RunLog::fold_pairs`).

/// An element type of a [`Store`]: how a value is packed into it.
pub(crate) trait Packed: Copy {
    /// What a reader sees.
    type Value: Copy;
    /// Whether `v` fits this element.
    fn holds(v: Self::Value) -> bool;
    /// `v` as this element; lossless where [`holds`](Packed::holds).
    fn pack(v: Self::Value) -> Self;
    /// The element's value.
    fn unpack(self) -> Self::Value;
}

macro_rules! packed_int {
    ($($t:ty),*) => {$(
        impl Packed for $t {
            type Value = u32;

            #[inline]
            fn holds(v: u32) -> bool {
                v <= <$t>::MAX.into()
            }

            #[inline]
            fn pack(v: u32) -> Self {
                v as $t
            }

            #[inline]
            fn unpack(self) -> u32 {
                self.into()
            }
        }
    )*};
}

packed_int!(u8, u16, u32);

/// One value per cell in the narrowest of `A`, `B` and `C` that holds them
/// all, where `C` holds every value the store is given; see the module
/// docs.
#[derive(Clone, Debug)]
pub(crate) enum Store<A, B, C> {
    First(Vec<A>),
    Second(Vec<B>),
    Third(Vec<C>),
}

/// 32-bit values at 1, 2 or 4 bytes per cell.
pub(crate) type Column = Store<u8, u16, u32>;

impl<A, B, C> Default for Store<A, B, C> {
    fn default() -> Self {
        Store::First(Vec::new())
    }
}

impl<V: Copy, A, B, C> Store<A, B, C>
where
    A: Packed<Value = V>,
    B: Packed<Value = V>,
    C: Packed<Value = V>,
{
    /// An empty store of the narrowest element, with room for `n` cells.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Store::First(Vec::with_capacity(n))
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Store::First(s) => s.len(),
            Store::Second(s) => s.len(),
            Store::Third(s) => s.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of cell `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> V {
        match self {
            Store::First(s) => s[i].unpack(),
            Store::Second(s) => s[i].unpack(),
            Store::Third(s) => s[i].unpack(),
        }
    }

    /// Append `v`, widening the store first if `v` does not fit it.
    #[inline]
    pub(crate) fn push(&mut self, v: V) {
        self.fit(v);
        match self {
            Store::First(s) => s.push(A::pack(v)),
            Store::Second(s) => s.push(B::pack(v)),
            Store::Third(s) => s.push(C::pack(v)),
        }
    }

    /// Store `v` at cell `i`, widening the store first if `v` does not fit
    /// it.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: V) {
        self.fit(v);
        match self {
            Store::First(s) => s[i] = A::pack(v),
            Store::Second(s) => s[i] = B::pack(v),
            Store::Third(s) => s[i] = C::pack(v),
        }
    }

    /// Widen the store if `v` does not fit its element.
    #[inline]
    fn fit(&mut self, v: V) {
        let fits = match self {
            Store::First(_) => A::holds(v),
            Store::Second(_) => B::holds(v),
            Store::Third(_) => true,
        };
        if !fits {
            self.widen_for(v);
        }
    }

    /// Rewrite the store in the narrowest wider element that holds `v`,
    /// keeping its capacity in cells.
    #[cold]
    fn widen_for(&mut self, v: V) {
        fn rewritten<X: Packed, Y: Packed<Value = X::Value>>(xs: &[X], capacity: usize) -> Vec<Y> {
            let mut ys = Vec::with_capacity(capacity);
            ys.extend(xs.iter().map(|x| Y::pack(x.unpack())));
            ys
        }
        let to_b = B::holds(v);
        *self = match std::mem::take(self) {
            Store::First(s) if to_b => Store::Second(rewritten(&s, s.capacity())),
            Store::First(s) => Store::Third(rewritten(&s, s.capacity())),
            Store::Second(s) => Store::Third(rewritten(&s, s.capacity())),
            Store::Third(_) => unreachable!("the widest element holds every value"),
        };
    }

    /// Number of cells whose value satisfies `pred`.
    pub(crate) fn count(&self, pred: impl Fn(V) -> bool) -> usize {
        match self {
            Store::First(s) => s.iter().filter(|x| pred(x.unpack())).count(),
            Store::Second(s) => s.iter().filter(|x| pred(x.unpack())).count(),
            Store::Third(s) => s.iter().filter(|x| pred(x.unpack())).count(),
        }
    }

    /// Bytes each cell takes in the current element.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        use std::mem::size_of;
        match self {
            Store::First(_) => size_of::<A>(),
            Store::Second(_) => size_of::<B>(),
            Store::Third(_) => size_of::<C>(),
        }
    }

    /// Cells the store holds without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        match self {
            Store::First(s) => s.capacity(),
            Store::Second(s) => s.capacity(),
            Store::Third(s) => s.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(c: &Column) -> Vec<u32> {
        (0..c.len()).map(|i| c.get(i)).collect()
    }

    #[test]
    fn a_column_widens_from_1_to_2_to_4_bytes_once_per_width() {
        let mut c = Column::with_capacity(8);
        let mut widths = Vec::new();
        for v in [0, 255, 256, 65_535, 65_536, u32::MAX, 7] {
            c.push(v);
            widths.push(c.width());
        }
        assert_eq!(widths, [1, 1, 2, 2, 4, 4, 4]);
        assert_eq!(values(&c), [0, 255, 256, 65_535, 65_536, u32::MAX, 7]);
        assert_eq!(c.capacity(), 8, "widening keeps the room reserved");
        // Straight from 1 byte to 4, by `set` as by `push`.
        let mut c = Column::First(vec![0; 3]);
        c.set(1, 1 << 16);
        assert_eq!((c.width(), values(&c)), (4, vec![0, 1 << 16, 0]));
    }

    #[test]
    fn zero_stays_zero_across_a_widening() {
        let mut c = Column::First(vec![0; 4]);
        c.set(2, 255);
        assert_eq!(c.width(), 1);
        c.set(1, 300);
        assert_eq!((c.width(), values(&c)), (2, vec![0, 300, 255, 0]));
        c.set(3, 70_000);
        assert_eq!((c.width(), values(&c)), (4, vec![0, 300, 255, 70_000]));
        assert_eq!(c.count(|v| v == 0), 1);
    }
}
