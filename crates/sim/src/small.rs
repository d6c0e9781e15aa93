//! Short lists stored inline: the participants and dependencies of a task.
//!
//! A lowered paper cell holds thousands of tasks, nearly all of them
//! single-GPU kernels with at most a few dependencies. Kept in `Vec`s,
//! every task paid one allocation for its participant and one for its
//! dependency list, and the same again to free them. A [`SmallList`]
//! keeps up to `N` items in place and moves to the heap only past that,
//! so building, chaining, copying and dropping a task allocates nothing.

use crate::{GpuId, TaskId};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// The devices a task occupies: inline up to 8, every paper node.
pub type Participants = SmallList<GpuId, 8>;

/// A task's explicit dependencies: inline up to 4.
pub type Deps = SmallList<TaskId, 4>;

/// A list of up to `N` `Copy` items stored inline, spilling to the heap
/// beyond that. It dereferences to a slice, so readers see `&[T]`.
///
/// ```
/// use olab_sim::SmallList;
///
/// let mut list: SmallList<u32, 2> = SmallList::new();
/// list.extend([3, 1]);
/// assert_eq!(list, [3, 1]);
/// list.push(2); // spills to the heap
/// list.sort_unstable();
/// assert_eq!(list, vec![1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct SmallList<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` are the list.
    Inline { len: u8, items: [T; N] },
    /// `items[..len]` are the list and the rest is spare capacity. A boxed
    /// slice with its own length, so a spilled list takes no more room
    /// than an inline one.
    Heap { len: u32, items: Box<[T]> },
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "inline capacity must fit in a u8") };
        SmallList(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// The items as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap { len, items } => &items[..*len as usize],
        }
    }

    /// The items as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap { len, items } => &mut items[..*len as usize],
        }
    }

    /// Whether the items have moved to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap { .. })
    }

    /// Appends one item.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.extend_from_slice(&[item]);
    }

    /// Appends every item of `more`.
    #[inline]
    pub fn extend_from_slice(&mut self, more: &[T]) {
        let at = self.len();
        let end = at + more.len();
        if end > self.slots().len() {
            self.grow(end);
        }
        self.slots()[at..end].copy_from_slice(more);
        self.set_len(end);
    }

    /// Shortens the list to its first `len` items; does nothing if it is
    /// no longer than that.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.set_len(len);
        }
    }

    /// Every slot, in use or spare.
    #[inline]
    fn slots(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { items, .. } => items,
            Repr::Heap { items, .. } => items,
        }
    }

    /// Sets the length; `new_len` must not exceed the slot count.
    #[inline]
    fn set_len(&mut self, new_len: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = new_len as u8,
            Repr::Heap { len, .. } => {
                *len = u32::try_from(new_len).expect("list length fits in a u32");
            }
        }
    }

    /// Moves the items to a heap buffer of at least `needed` slots, and at
    /// least twice as many as now.
    #[cold]
    fn grow(&mut self, needed: usize) {
        let len = self.len();
        let capacity = needed.max(2 * self.slots().len());
        let mut items = vec![T::default(); capacity].into_boxed_slice();
        items[..len].copy_from_slice(self.as_slice());
        self.0 = Repr::Heap {
            len: u32::try_from(len).expect("list length fits in a u32"),
            items,
        };
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> SmallList<T, N> {
    /// Removes consecutive repeated items, keeping the first of each run,
    /// like [`Vec::dedup`].
    pub fn dedup(&mut self) {
        let items = self.as_mut_slice();
        let mut kept = usize::from(!items.is_empty());
        for i in 1..items.len() {
            if items[i] != items[kept - 1] {
                items[kept] = items[i];
                kept += 1;
            }
        }
        self.truncate(kept);
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallList<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallList<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallList<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for SmallList<T, N> {
    fn from(items: &[T]) -> Self {
        let mut list = Self::new();
        list.extend_from_slice(items);
        list
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for SmallList<T, N> {
    fn from(items: [T; M]) -> Self {
        Self::from(&items[..])
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for SmallList<T, N> {
    /// Copies a short vector inline; a long one becomes the heap storage.
    fn from(items: Vec<T>) -> Self {
        if items.len() <= N {
            Self::from(&items[..])
        } else {
            SmallList(Repr::Heap {
                len: u32::try_from(items.len()).expect("list length fits in a u32"),
                items: items.into_boxed_slice(),
            })
        }
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]>
    for SmallList<T, N>
{
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn lists_are_no_larger_than_a_vec() {
        assert!(size_of::<Participants>() <= size_of::<Vec<GpuId>>());
        assert!(size_of::<Deps>() <= size_of::<Vec<TaskId>>());
    }

    #[test]
    fn push_fills_inline_then_spills_keeping_order() {
        let mut list: SmallList<u32, 4> = SmallList::new();
        for i in 0..4 {
            list.push(i);
        }
        assert!(!list.spilled());
        list.push(4);
        assert!(list.spilled());
        list.extend([5, 6]);
        assert_eq!(list, (0..7).collect::<Vec<_>>());
        assert_eq!(list.len(), 7);
    }

    #[test]
    fn extend_from_slice_spills_only_past_capacity() {
        let mut list: SmallList<u32, 4> = SmallList::new();
        list.extend_from_slice(&[1, 2, 3]);
        list.extend_from_slice(&[]);
        assert!(!list.spilled());
        list.extend_from_slice(&[4, 5]);
        assert!(list.spilled());
        assert_eq!(list, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn conversions_keep_short_lists_inline() {
        let short: SmallList<u32, 4> = vec![1, 2].into();
        assert!(!short.spilled());
        let long: SmallList<u32, 4> = vec![1, 2, 3, 4, 5].into();
        assert!(long.spilled());
        assert_eq!(long, [1, 2, 3, 4, 5]);
        let exact: SmallList<u32, 4> = [1, 2, 3, 4].into();
        assert!(!exact.spilled());
        assert_eq!(SmallList::<u32, 4>::from(&[7][..]), vec![7]);
    }

    #[test]
    fn sort_and_dedup_on_inline_and_heap_storage() {
        for n in [3usize, 12] {
            let items: Vec<u32> = (0..n as u32).rev().chain(0..n as u32).collect();
            let mut list: SmallList<u32, 4> = items.into();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list, (0..n as u32).collect::<Vec<_>>());
        }
        let mut empty: SmallList<u32, 4> = SmallList::new();
        empty.dedup();
        assert!(empty.is_empty());
    }

    #[test]
    fn truncate_keeps_a_prefix() {
        let mut list: SmallList<u32, 2> = [1, 2].into();
        list.truncate(300);
        assert_eq!(list, [1, 2]);
        list.truncate(1);
        assert_eq!(list, [1]);
        let mut heap: SmallList<u32, 2> = [1, 2, 3].into();
        heap.truncate(0);
        assert!(heap.is_empty());
        heap.push(9);
        assert_eq!(heap, [9]);
    }

    #[test]
    fn equality_and_debug_ignore_the_storage() {
        let inline: SmallList<u32, 4> = [1, 2].into();
        let mut heap: SmallList<u32, 4> = [1, 2, 3, 4, 5].into();
        heap.truncate(2);
        assert!(heap.spilled());
        assert_eq!(inline, heap);
        assert_eq!(format!("{inline:?}"), format!("{:?}", vec![1, 2]));
        assert_eq!(format!("{heap:?}"), "[1, 2]");
    }
}
