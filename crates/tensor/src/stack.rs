//! Ordered collections of same-sized feature maps.

use crate::{FeatureMap, ShapeError};
use core::fmt;
use core::ops::Index;

/// An ordered stack of same-sized [`FeatureMap`]s — a layer's input or
/// output (the paper's "#mi"/"#mo" indexed map sets).
///
/// All maps in a stack share one `(width, height)`; the invariant is
/// enforced at construction and on [`MapStack::push`].
///
/// # Examples
///
/// ```
/// use shidiannao_tensor::{FeatureMap, MapStack};
/// let mut stack = MapStack::new(3, 3);
/// stack.push(FeatureMap::filled(3, 3, 1u8)).unwrap();
/// stack.push(FeatureMap::filled(3, 3, 2u8)).unwrap();
/// assert_eq!(stack.len(), 2);
/// assert_eq!(stack[1][(0, 0)], 2);
/// ```
/// Removes and returns the bin entry whose capacity best fits `needed`
/// elements: an exact match wins outright, otherwise the smallest
/// capacity that still holds `needed`, otherwise the largest available
/// (so the inevitable regrowth starts as close to `needed` as it can).
fn take_best_fit<T>(bin: &mut Vec<FeatureMap<T>>, needed: usize) -> Option<FeatureMap<T>> {
    let mut best: Option<(usize, usize)> = None;
    for (i, m) in bin.iter().enumerate() {
        let cap = m.capacity();
        if cap == needed {
            best = Some((i, cap));
            break;
        }
        let better = match best {
            None => true,
            Some((_, best_cap)) if best_cap >= needed => cap >= needed && cap < best_cap,
            Some((_, best_cap)) => cap > best_cap,
        };
        if better {
            best = Some((i, cap));
        }
    }
    best.map(|(i, _)| bin.swap_remove(i))
}

#[derive(PartialEq, Eq, Hash)]
pub struct MapStack<T> {
    width: usize,
    height: usize,
    maps: Vec<FeatureMap<T>>,
}

impl<T: Clone> Clone for MapStack<T> {
    fn clone(&self) -> MapStack<T> {
        MapStack {
            width: self.width,
            height: self.height,
            maps: self.maps.clone(),
        }
    }

    /// Capacity-reusing clone: delegates to `Vec::clone_from`, which in
    /// turn `clone_from`s each [`FeatureMap`] — so re-loading a stack of
    /// the same (or smaller) shape allocates nothing.
    fn clone_from(&mut self, source: &MapStack<T>) {
        self.width = source.width;
        self.height = source.height;
        self.maps.clone_from(&source.maps);
    }
}

impl<T> MapStack<T> {
    /// Creates an empty stack accepting `width × height` maps.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> MapStack<T> {
        assert!(
            width > 0 && height > 0,
            "map stack must have non-empty maps"
        );
        MapStack {
            width,
            height,
            maps: Vec::new(),
        }
    }

    /// Creates a stack of `count` maps, each produced by `f(map_index)`.
    ///
    /// # Panics
    ///
    /// Panics if a produced map has the wrong dimensions.
    pub fn from_fn(
        width: usize,
        height: usize,
        count: usize,
        mut f: impl FnMut(usize) -> FeatureMap<T>,
    ) -> MapStack<T> {
        let mut stack = MapStack::new(width, height);
        for i in 0..count {
            stack.push(f(i)).unwrap_or_else(|e| panic!("map #{i}: {e}"));
        }
        stack
    }

    /// Creates a stack of `count` maps all filled with `value`.
    pub fn filled(width: usize, height: usize, count: usize, value: T) -> MapStack<T>
    where
        T: Clone,
    {
        MapStack::from_fn(width, height, count, |_| {
            FeatureMap::filled(width, height, value.clone())
        })
    }

    /// Reshapes the stack in place to `count` maps of `width × height`,
    /// every element set to `value`, reusing existing map storage (see
    /// [`FeatureMap::refill`]) — the NB output buffers recycle their
    /// retired stacks through this.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn refill(&mut self, width: usize, height: usize, count: usize, value: T)
    where
        T: Clone,
    {
        assert!(
            width > 0 && height > 0,
            "map stack must have non-empty maps"
        );
        self.width = width;
        self.height = height;
        self.maps.truncate(count);
        for m in &mut self.maps {
            m.refill(width, height, value.clone());
        }
        while self.maps.len() < count {
            self.maps
                .push(FeatureMap::filled(width, height, value.clone()));
        }
    }

    /// [`MapStack::refill`] that never drops map storage: every held map
    /// is parked in `bin`, then the stack is rebuilt from the best
    /// capacity fits — so a buffer cycling through layer shapes of
    /// varying map counts reaches its high-water mark within a run or
    /// two and then churns nothing. (A plain LIFO pop converges far too
    /// slowly: classifier layers flood the bin with 1×1 maps, and one of
    /// them lands in a large-shape slot and regrows on every run.)
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn refill_recycling(
        &mut self,
        width: usize,
        height: usize,
        count: usize,
        value: T,
        bin: &mut Vec<FeatureMap<T>>,
    ) where
        T: Clone,
    {
        assert!(
            width > 0 && height > 0,
            "map stack must have non-empty maps"
        );
        self.width = width;
        self.height = height;
        let needed = width * height;
        self.recycle_into(bin);
        for _ in 0..count {
            let m = match take_best_fit(bin, needed) {
                Some(mut m) => {
                    m.refill(width, height, value.clone());
                    m
                }
                None => FeatureMap::filled(width, height, value.clone()),
            };
            self.maps.push(m);
        }
    }

    /// Capacity-reusing `clone_from` that never drops map storage: maps
    /// are parked in `bin` and reclaimed by best capacity fit before
    /// allocating (see [`MapStack::refill_recycling`]).
    pub fn clone_from_recycling(&mut self, source: &MapStack<T>, bin: &mut Vec<FeatureMap<T>>)
    where
        T: Clone,
    {
        self.width = source.width;
        self.height = source.height;
        let needed = source.width * source.height;
        self.recycle_into(bin);
        for src in &source.maps {
            let m = match take_best_fit(bin, needed) {
                Some(mut m) => {
                    m.clone_from(src);
                    m
                }
                None => src.clone(),
            };
            self.maps.push(m);
        }
    }

    /// Moves every map into `bin`, leaving the stack empty (its own map
    /// list keeps its capacity) — how a retired stack offers its storage
    /// to [`MapStack::refill_recycling`] and
    /// [`MapStack::clone_from_recycling`] on another stack.
    pub fn recycle_into(&mut self, bin: &mut Vec<FeatureMap<T>>) {
        bin.append(&mut self.maps);
    }

    /// Appends a map.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the map's dimensions differ from the
    /// stack's.
    pub fn push(&mut self, map: FeatureMap<T>) -> Result<(), ShapeError> {
        if map.dims() != (self.width, self.height) {
            return Err(ShapeError::new(format!(
                "stack holds {}x{} maps but got {}x{}",
                self.width,
                self.height,
                map.width(),
                map.height()
            )));
        }
        self.maps.push(map);
        Ok(())
    }

    /// Per-map width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Per-map height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Per-map `(width, height)`.
    #[inline]
    pub fn map_dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of maps.
    #[inline]
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// `true` if the stack holds no maps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Total neuron count across all maps.
    #[inline]
    pub fn neuron_count(&self) -> usize {
        self.maps.len() * self.width * self.height
    }

    /// The map at `index`, or `None` if out of range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&FeatureMap<T>> {
        self.maps.get(index)
    }

    /// Mutable access to the map at `index`.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut FeatureMap<T>> {
        self.maps.get_mut(index)
    }

    /// Iterates over the maps.
    pub fn iter(&self) -> core::slice::Iter<'_, FeatureMap<T>> {
        self.maps.iter()
    }

    /// Produces a new stack by applying `f` to every element of every map.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> MapStack<U> {
        MapStack {
            width: self.width,
            height: self.height,
            maps: self.maps.iter().map(|m| m.map(&mut f)).collect(),
        }
    }

    /// Flattens the stack into a single vector, map-major then row-major —
    /// the order a classifier layer consumes its inputs (#ni numbering).
    pub fn flatten(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.neuron_count());
        for m in &self.maps {
            out.extend_from_slice(m.as_slice());
        }
        out
    }
}

impl<T: fmt::Debug> fmt::Debug for MapStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MapStack {{ {} maps of {}x{} }}",
            self.maps.len(),
            self.width,
            self.height
        )
    }
}

impl<T> Index<usize> for MapStack<T> {
    type Output = FeatureMap<T>;
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    fn index(&self, index: usize) -> &FeatureMap<T> {
        &self.maps[index]
    }
}

impl<'a, T> IntoIterator for &'a MapStack<T> {
    type Item = &'a FeatureMap<T>;
    type IntoIter = core::slice::Iter<'a, FeatureMap<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.maps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_dims() {
        let mut s = MapStack::new(2, 2);
        assert!(s.push(FeatureMap::filled(2, 2, 0u8)).is_ok());
        assert!(s.push(FeatureMap::filled(3, 2, 0u8)).is_err());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_fn_builds_indexed_maps() {
        let s = MapStack::from_fn(2, 2, 3, |i| FeatureMap::filled(2, 2, i));
        assert_eq!(s.len(), 3);
        assert_eq!(s[2][(1, 1)], 2);
        assert_eq!(s.neuron_count(), 12);
    }

    #[test]
    fn flatten_is_map_major_row_major() {
        let s = MapStack::from_fn(2, 2, 2, |i| {
            FeatureMap::from_fn(2, 2, move |x, y| 100 * i + 10 * y + x)
        });
        assert_eq!(s.flatten(), vec![0, 1, 10, 11, 100, 101, 110, 111]);
    }

    #[test]
    fn map_transforms_all_elements() {
        let s = MapStack::filled(2, 2, 2, 3i32);
        let t = s.map(|v| v * v);
        assert_eq!(t[0][(0, 0)], 9);
        assert_eq!(t.map_dims(), (2, 2));
    }

    #[test]
    fn get_and_iter() {
        let s = MapStack::filled(1, 1, 2, 7u8);
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert_eq!(s.iter().count(), 2);
        assert_eq!((&s).into_iter().count(), 2);
        assert!(!s.is_empty());
        assert!(MapStack::<u8>::new(1, 1).is_empty());
    }

    #[test]
    fn get_mut_writes_through() {
        let mut s = MapStack::filled(1, 1, 1, 0u8);
        s.get_mut(0).unwrap()[(0, 0)] = 5;
        assert_eq!(s[0][(0, 0)], 5);
    }

    #[test]
    fn refill_reshapes_in_place() {
        let mut s = MapStack::filled(4, 4, 3, 9u8);
        s.refill(2, 2, 5, 0u8);
        assert_eq!(s.map_dims(), (2, 2));
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|m| m.iter().all(|&v| v == 0)));
        s.refill(3, 1, 1, 2u8);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].as_slice(), &[2, 2, 2]);
    }

    #[test]
    fn clone_from_matches_clone() {
        let src = MapStack::from_fn(2, 2, 2, |i| FeatureMap::filled(2, 2, i));
        let mut dst = MapStack::filled(3, 3, 4, 0usize);
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn refill_recycling_parks_and_reuses_maps() {
        let mut bin = Vec::new();
        let mut s = MapStack::filled(4, 4, 5, 9u8);
        s.refill_recycling(2, 2, 2, 0u8, &mut bin);
        assert_eq!(s.len(), 2);
        assert_eq!(bin.len(), 3);
        s.refill_recycling(3, 3, 4, 1u8, &mut bin);
        assert_eq!(s.len(), 4);
        assert_eq!(bin.len(), 1);
        assert_eq!(s.map_dims(), (3, 3));
        assert!(s.iter().all(|m| m.iter().all(|&v| v == 1)));
    }

    #[test]
    fn clone_from_recycling_matches_clone() {
        let src = MapStack::from_fn(2, 2, 3, |i| FeatureMap::filled(2, 2, i));
        let mut bin = Vec::new();
        let mut dst = MapStack::filled(3, 3, 5, 0usize);
        dst.clone_from_recycling(&src, &mut bin);
        assert_eq!(dst, src);
        assert_eq!(bin.len(), 2);
        let small = MapStack::filled(1, 1, 1, 7usize);
        dst.clone_from_recycling(&small, &mut bin);
        assert_eq!(dst, small);
        // Growing again drains the bin before allocating.
        dst.clone_from_recycling(&src, &mut bin);
        assert_eq!(dst, src);
        assert_eq!(bin.len(), 2);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = MapStack::<u8>::new(4, 4);
        assert!(format!("{s:?}").contains("0 maps of 4x4"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dims_panic() {
        let _ = MapStack::<u8>::new(4, 0);
    }
}
