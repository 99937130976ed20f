//! The per-thread-block map index table (§4.1.2).
//!
//! Every `AddMap` call a thread block makes allocates one slot here; the
//! compiler, knowing the fixed order of `AddMap` calls, embeds the slot
//! number in subsequent stash instructions. The paper allocates up to four
//! entries per thread block — if the compiler runs out of entries it
//! simply cannot map more data to the stash.

use crate::map::MapIndex;
use sim::SimError;

/// A thread block's map index table.
///
/// # Example
///
/// ```
/// use stash::index_table::MapIndexTable;
/// use stash::map::MapIndex;
///
/// let mut t = MapIndexTable::new(4);
/// let slot = t.allocate(MapIndex(9)).unwrap();
/// assert_eq!(slot, 0);
/// assert_eq!(t.resolve(0), Some(MapIndex(9)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapIndexTable {
    capacity: usize,
    slots: Vec<MapIndex>,
}

impl MapIndexTable {
    /// Creates a table with `capacity` slots (4 in the paper).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::with_capacity(capacity),
        }
    }

    /// Records a new mapping, returning its slot number.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TableFull`] after `capacity` `AddMap`s.
    pub fn allocate(&mut self, index: MapIndex) -> Result<usize, SimError> {
        if self.slots.len() == self.capacity {
            return Err(SimError::TableFull {
                table: "map index table",
                capacity: self.capacity,
            });
        }
        self.slots.push(index);
        Ok(self.slots.len() - 1)
    }

    /// Resolves an instruction's slot number to a stash-map index.
    pub fn resolve(&self, slot: usize) -> Option<MapIndex> {
        self.slots.get(slot).copied()
    }

    /// Replaces the stash-map index a slot points to (`ChgMap`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMapping`] if the slot was never
    /// allocated.
    pub fn update(&mut self, slot: usize, index: MapIndex) -> Result<(), SimError> {
        match self.slots.get_mut(slot) {
            Some(s) => {
                *s = index;
                Ok(())
            }
            None => Err(SimError::InvalidMapping(format!(
                "map index table slot {slot} not allocated"
            ))),
        }
    }

    /// The stash-map indices this thread block holds.
    pub fn indices(&self) -> &[MapIndex] {
        &self.slots
    }

    /// Number of allocated slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no `AddMap` has been made.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Serializes the allocated slots. The capacity is configuration,
    /// fixed when the table is built, so it is not saved.
    pub fn save(&self, w: &mut sim::snapshot::Writer) {
        w.put_usize(self.slots.len());
        for &MapIndex(i) in &self.slots {
            w.put_u8(i);
        }
    }

    /// Reads slots written by [`MapIndexTable::save`] into this table,
    /// built with the saved table's capacity.
    pub fn restore(&mut self, r: &mut sim::snapshot::Reader<'_>) -> Result<(), SimError> {
        let n = r.take_usize()?;
        if n > self.capacity {
            return Err(SimError::CheckpointCorrupt {
                what: "map index table",
                detail: format!("{n} slots exceed capacity {}", self.capacity),
            });
        }
        self.slots.clear();
        for _ in 0..n {
            self.slots.push(MapIndex(r.take_u8()?));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_in_call_order() {
        let mut t = MapIndexTable::new(4);
        for i in 0..4u8 {
            assert_eq!(t.allocate(MapIndex(i + 10)).unwrap(), i as usize);
        }
        assert_eq!(t.resolve(2), Some(MapIndex(12)));
        assert_eq!(t.resolve(4), None);
    }

    #[test]
    fn overflows_at_capacity() {
        let mut t = MapIndexTable::new(4);
        for i in 0..4u8 {
            t.allocate(MapIndex(i)).unwrap();
        }
        assert!(matches!(
            t.allocate(MapIndex(4)),
            Err(SimError::TableFull { capacity: 4, .. })
        ));
    }

    #[test]
    fn update_rebinds_slot() {
        let mut t = MapIndexTable::new(4);
        t.allocate(MapIndex(1)).unwrap();
        t.update(0, MapIndex(7)).unwrap();
        assert_eq!(t.resolve(0), Some(MapIndex(7)));
        assert!(t.update(3, MapIndex(0)).is_err());
    }
}
