//! Physical-address ⇄ DRAM-address mapping and DRAM address types.

use crate::error::DramError;
use crate::geometry::DramGeometry;
use serde::{Deserialize, Serialize};

/// A physical (byte) address as seen by the last-level cache.
pub type PhysAddr = u64;

/// Globally unique identifier of a DRAM row: `(channel, rank, bank group, bank, row)`
/// flattened into a single integer. Used as the key for RowHammer trackers.
pub type GlobalRowId = u64;

/// A fully decoded DRAM address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct DramAddr {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank group index within the rank.
    pub bank_group: usize,
    /// Bank index within the bank group.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Column (cache line) index within the row.
    pub column: usize,
}

impl DramAddr {
    /// Flat bank index within the channel: `rank * banks_per_rank + bank_group * banks_per_group + bank`.
    pub fn flat_bank(&self, geometry: &DramGeometry) -> usize {
        self.rank * geometry.banks_per_rank() + self.bank_group * geometry.banks_per_bank_group + self.bank
    }

    /// Flat bank index within the rank.
    pub fn bank_in_rank(&self, geometry: &DramGeometry) -> usize {
        self.bank_group * geometry.banks_per_bank_group + self.bank
    }

    /// Globally unique row identifier (across channels, ranks, and banks).
    pub fn global_row_id(&self, geometry: &DramGeometry) -> GlobalRowId {
        let bank = self.channel * geometry.banks_per_channel() + self.flat_bank(geometry);
        bank as u64 * geometry.rows_per_bank as u64 + self.row as u64
    }

    /// Returns a copy of this address pointing at a different row of the same bank.
    pub fn with_row(&self, row: usize) -> Self {
        DramAddr { row, ..*self }
    }

    /// Validates the address against a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] naming the first out-of-range field.
    pub fn validate(&self, geometry: &DramGeometry) -> Result<(), DramError> {
        let checks: [(&'static str, u64, u64); 6] = [
            ("channel", self.channel as u64, geometry.channels as u64),
            ("rank", self.rank as u64, geometry.ranks_per_channel as u64),
            ("bank_group", self.bank_group as u64, geometry.bank_groups_per_rank as u64),
            ("bank", self.bank as u64, geometry.banks_per_bank_group as u64),
            ("row", self.row as u64, geometry.rows_per_bank as u64),
            ("column", self.column as u64, geometry.columns_per_row as u64),
        ];
        for (field, value, limit) in checks {
            if value >= limit {
                return Err(DramError::AddressOutOfRange { field, value, limit });
            }
        }
        Ok(())
    }

    /// The two immediately adjacent (victim) rows of this row, clamped to the bank.
    ///
    /// RowHammer mitigations preventively refresh these rows when this row is
    /// identified as an aggressor. Rows at the edge of the bank have a single victim.
    pub fn victim_rows(&self, geometry: &DramGeometry) -> Vec<DramAddr> {
        let mut victims = Vec::with_capacity(2);
        if self.row > 0 {
            victims.push(self.with_row(self.row - 1));
        }
        if self.row + 1 < geometry.rows_per_bank {
            victims.push(self.with_row(self.row + 1));
        }
        victims
    }
}

/// Address interleaving scheme used to translate physical addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddressScheme {
    /// Row : Rank : BankGroup : Bank : Column : Channel (low bits = channel).
    /// Consecutive cache lines spread across channels then columns: good row locality.
    RoRaBgBaCoCh,
    /// Row : Column : Rank : BankGroup : Bank : Channel — consecutive lines spread
    /// across banks first (bank interleaving, lower row locality).
    RoCoRaBgBaCh,
    /// [`RoRaBgBaCoCh`](Self::RoRaBgBaCoCh) with an XOR channel hash: the low
    /// `log2(channels)` row bits are XORed into the channel select, so
    /// same-column strides that would camp on one channel spread across all
    /// of them, and an attacker hammering consecutive rows of "one bank"
    /// scatters its activations across every channel's tracker — the
    /// cross-channel mapping study's hashing point. XOR keeps the mapping an
    /// involution, so decode is its own inverse; the hash requires a
    /// power-of-two channel count and degrades to the identity otherwise
    /// (1-channel systems are unchanged by construction).
    RoRaBgBaCoChXor,
    /// Row : Rank : BankGroup : Bank : Channel : Column — the channel select
    /// sits just above the column bits, so one full row's worth of cache
    /// lines stays in its channel and *consecutive rows* of the physical
    /// space interleave across channels (row-granular channel
    /// interleaving). Streams keep their row locality, while a row-walking
    /// attacker feeds every channel's tracker in turn instead of hammering
    /// one controller — the third point of the cross-channel mapping study.
    RoRaBgBaChCo,
}

impl AddressScheme {
    /// The effective channel of a decoded address under this scheme: for the
    /// XOR variant the raw channel-select bits are hashed with the low row
    /// bits (an involution); the plain schemes pass them through.
    fn hash_channel(&self, raw_channel: usize, row: usize, channels: usize) -> usize {
        match self {
            AddressScheme::RoRaBgBaCoChXor if channels.is_power_of_two() => {
                raw_channel ^ (row & (channels - 1))
            }
            _ => raw_channel,
        }
    }
}

/// Translates physical addresses to DRAM addresses for a given geometry.
///
/// ```rust
/// use comet_dram::{AddressMapper, AddressScheme, DramGeometry};
/// let mapper = AddressMapper::new(DramGeometry::paper_default(), AddressScheme::RoRaBgBaCoCh);
/// let a = mapper.map(0x1234_5678);
/// let b = mapper.map(0x1234_5678);
/// assert_eq!(a, b); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    geometry: DramGeometry,
    scheme: AddressScheme,
}

impl AddressMapper {
    /// Creates a mapper for `geometry` using `scheme`.
    pub fn new(geometry: DramGeometry, scheme: AddressScheme) -> Self {
        AddressMapper { geometry, scheme }
    }

    /// The geometry this mapper was built for.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Maps a physical byte address onto a DRAM address.
    ///
    /// Addresses beyond the memory capacity wrap around (the modulo of each
    /// field keeps the result in range), which lets synthetic traces use the
    /// full 64-bit space without caring about capacity.
    pub fn map(&self, phys: PhysAddr) -> DramAddr {
        let g = &self.geometry;
        let mut bits = phys / g.bytes_per_column as u64;
        let mut take = |count: usize| -> usize {
            let v = (bits % count as u64) as usize;
            bits /= count as u64;
            v
        };
        match self.scheme {
            AddressScheme::RoRaBgBaCoCh | AddressScheme::RoRaBgBaCoChXor => {
                let raw_channel = take(g.channels);
                let column = take(g.columns_per_row);
                let bank = take(g.banks_per_bank_group);
                let bank_group = take(g.bank_groups_per_rank);
                let rank = take(g.ranks_per_channel);
                let row = take(g.rows_per_bank);
                let channel = self.scheme.hash_channel(raw_channel, row, g.channels);
                DramAddr { channel, rank, bank_group, bank, row, column }
            }
            AddressScheme::RoCoRaBgBaCh => {
                let channel = take(g.channels);
                let bank = take(g.banks_per_bank_group);
                let bank_group = take(g.bank_groups_per_rank);
                let rank = take(g.ranks_per_channel);
                let column = take(g.columns_per_row);
                let row = take(g.rows_per_bank);
                DramAddr { channel, rank, bank_group, bank, row, column }
            }
            AddressScheme::RoRaBgBaChCo => {
                let column = take(g.columns_per_row);
                let channel = take(g.channels);
                let bank = take(g.banks_per_bank_group);
                let bank_group = take(g.bank_groups_per_rank);
                let rank = take(g.ranks_per_channel);
                let row = take(g.rows_per_bank);
                DramAddr { channel, rank, bank_group, bank, row, column }
            }
        }
    }

    /// Inverse of [`map`](Self::map): reconstructs a canonical physical address.
    pub fn unmap(&self, addr: &DramAddr) -> PhysAddr {
        let g = &self.geometry;
        let mut bits: u64 = 0;
        let mut push = |value: usize, count: usize| {
            bits = bits * count as u64 + value as u64;
        };
        match self.scheme {
            AddressScheme::RoRaBgBaCoCh | AddressScheme::RoRaBgBaCoChXor => {
                // The XOR hash is an involution: re-applying it to the
                // decoded channel recovers the raw channel-select bits.
                let raw_channel = self.scheme.hash_channel(addr.channel, addr.row, g.channels);
                push(addr.row, g.rows_per_bank);
                push(addr.rank, g.ranks_per_channel);
                push(addr.bank_group, g.bank_groups_per_rank);
                push(addr.bank, g.banks_per_bank_group);
                push(addr.column, g.columns_per_row);
                push(raw_channel, g.channels);
            }
            AddressScheme::RoCoRaBgBaCh => {
                push(addr.row, g.rows_per_bank);
                push(addr.column, g.columns_per_row);
                push(addr.rank, g.ranks_per_channel);
                push(addr.bank_group, g.bank_groups_per_rank);
                push(addr.bank, g.banks_per_bank_group);
                push(addr.channel, g.channels);
            }
            AddressScheme::RoRaBgBaChCo => {
                push(addr.row, g.rows_per_bank);
                push(addr.rank, g.ranks_per_channel);
                push(addr.bank_group, g.bank_groups_per_rank);
                push(addr.bank, g.banks_per_bank_group);
                push(addr.channel, g.channels);
                push(addr.column, g.columns_per_row);
            }
        }
        bits * g.bytes_per_column as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper(scheme: AddressScheme) -> AddressMapper {
        AddressMapper::new(DramGeometry::paper_default(), scheme)
    }

    #[test]
    fn map_is_deterministic_and_in_range() {
        let m = mapper(AddressScheme::RoRaBgBaCoCh);
        for i in 0..1000u64 {
            let phys = i * 64 * 7919; // stride over the space
            let a = m.map(phys);
            assert!(a.validate(m.geometry()).is_ok(), "{a:?}");
            assert_eq!(a, m.map(phys));
        }
    }

    #[test]
    fn unmap_round_trips_within_capacity() {
        for scheme in [AddressScheme::RoRaBgBaCoCh, AddressScheme::RoCoRaBgBaCh, AddressScheme::RoRaBgBaChCo]
        {
            let m = mapper(scheme);
            for i in 0..2000u64 {
                let phys = (i * 64 * 104_729) % m.geometry().capacity_bytes();
                let phys = phys - phys % 64;
                let addr = m.map(phys);
                assert_eq!(m.unmap(&addr), phys, "scheme {scheme:?}");
            }
        }
    }

    #[test]
    fn consecutive_lines_stay_in_row_with_row_locality_scheme() {
        let m = mapper(AddressScheme::RoRaBgBaCoCh);
        let base = 1u64 << 20;
        let a = m.map(base);
        let b = m.map(base + 64);
        // With a single channel the next cache line lands in the same row.
        assert_eq!(a.row, b.row);
        assert_eq!(a.flat_bank(m.geometry()), b.flat_bank(m.geometry()));
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn xor_scheme_round_trips_within_capacity() {
        for channels in [1usize, 2, 4] {
            let geometry = DramGeometry::paper_default().with_channels(channels);
            let m = AddressMapper::new(geometry, AddressScheme::RoRaBgBaCoChXor);
            for i in 0..2000u64 {
                let phys = (i * 64 * 104_729) % m.geometry().capacity_bytes();
                let phys = phys - phys % 64;
                let addr = m.map(phys);
                assert!(addr.validate(m.geometry()).is_ok(), "{addr:?}");
                assert_eq!(m.unmap(&addr), phys, "{channels}-channel XOR round trip");
            }
        }
    }

    #[test]
    fn xor_scheme_decodes_low_row_bits_into_channel_select() {
        let geometry = DramGeometry::paper_default().with_channels(4);
        let plain = AddressMapper::new(geometry.clone(), AddressScheme::RoRaBgBaCoCh);
        let xored = AddressMapper::new(geometry, AddressScheme::RoRaBgBaCoChXor);
        let mut differs = 0;
        for i in 0..512u64 {
            let phys = i * 64 * 7919;
            let a = plain.map(phys);
            let b = xored.map(phys);
            // Only the channel select moves, and by exactly the low row bits.
            assert_eq!(a.channel ^ (a.row & 3), b.channel, "XOR hash definition");
            assert_eq!(
                (a.rank, a.bank_group, a.bank, a.row, a.column),
                (b.rank, b.bank_group, b.bank, b.row, b.column)
            );
            if a.channel != b.channel {
                differs += 1;
            }
        }
        assert!(differs > 0, "the hash must actually move some channels");
    }

    #[test]
    fn xor_scheme_spreads_same_channel_row_strides_across_channels() {
        // Under the plain scheme, a stride that fixes the channel-select bits
        // while walking rows camps on one channel; the XOR hash spreads
        // exactly that pattern across all channels.
        let geometry = DramGeometry::paper_default().with_channels(4);
        let plain = AddressMapper::new(geometry.clone(), AddressScheme::RoRaBgBaCoCh);
        let xored = AddressMapper::new(geometry.clone(), AddressScheme::RoRaBgBaCoChXor);
        let row_stride = geometry.capacity_bytes() / geometry.rows_per_bank as u64;
        let mut plain_channels = std::collections::HashSet::new();
        let mut xored_channels = std::collections::HashSet::new();
        for row in 0..16u64 {
            plain_channels.insert(plain.map(row * row_stride).channel);
            xored_channels.insert(xored.map(row * row_stride).channel);
        }
        assert_eq!(plain_channels.len(), 1, "the stride must camp on one channel un-hashed");
        assert_eq!(xored_channels.len(), 4, "the hash must spread it across every channel");
    }

    #[test]
    fn xor_scheme_is_identity_at_one_channel() {
        let geometry = DramGeometry::paper_default();
        assert_eq!(geometry.channels, 1);
        let plain = AddressMapper::new(geometry.clone(), AddressScheme::RoRaBgBaCoCh);
        let xored = AddressMapper::new(geometry, AddressScheme::RoRaBgBaCoChXor);
        for i in 0..512u64 {
            let phys = i * 64 * 2749;
            assert_eq!(plain.map(phys), xored.map(phys));
        }
    }

    #[test]
    fn row_interleaved_scheme_maps_every_decoded_address_back() {
        // map ∘ unmap must be the identity on decoded addresses (the scheme
        // permutes the address bits, so both compositions are identities).
        let geometry = DramGeometry::paper_default().with_channels(4);
        let m = AddressMapper::new(geometry.clone(), AddressScheme::RoRaBgBaChCo);
        for i in 0..2000u64 {
            let row = (i as usize * 331) % geometry.rows_per_bank;
            let addr = DramAddr {
                channel: (i % 4) as usize,
                rank: (i % geometry.ranks_per_channel as u64) as usize,
                bank_group: (i % geometry.bank_groups_per_rank as u64) as usize,
                bank: (i % geometry.banks_per_bank_group as u64) as usize,
                row,
                column: (i as usize * 17) % geometry.columns_per_row,
            };
            assert_eq!(m.map(m.unmap(&addr)), addr);
        }
    }

    #[test]
    fn row_interleaved_scheme_keeps_lines_local_and_spreads_rows() {
        let geometry = DramGeometry::paper_default().with_channels(4);
        let m = AddressMapper::new(geometry.clone(), AddressScheme::RoRaBgBaChCo);
        // Consecutive cache lines of one row stay in one channel and row.
        let base = 1u64 << 22;
        let first = m.map(base);
        for line in 1..8u64 {
            let next = m.map(base + line * 64);
            assert_eq!(next.channel, first.channel);
            assert_eq!(next.row, first.row);
            assert_eq!(next.column, first.column + line as usize);
        }
        // Consecutive row-sized blocks walk every channel in turn.
        let row_bytes = (geometry.columns_per_row * geometry.bytes_per_column) as u64;
        let mut channels = std::collections::HashSet::new();
        for block in 0..4u64 {
            channels.insert(m.map(base + block * row_bytes).channel);
        }
        assert_eq!(channels.len(), 4, "consecutive rows must interleave across all channels");
    }

    #[test]
    fn consecutive_lines_interleave_banks_with_bank_scheme() {
        let m = mapper(AddressScheme::RoCoRaBgBaCh);
        let base = 1u64 << 20;
        let a = m.map(base);
        let b = m.map(base + 64);
        assert_ne!(a.flat_bank(m.geometry()), b.flat_bank(m.geometry()));
    }

    #[test]
    fn global_row_ids_are_unique_per_bank_row() {
        let g = DramGeometry::tiny();
        let mut seen = std::collections::HashSet::new();
        for rank in 0..g.ranks_per_channel {
            for bg in 0..g.bank_groups_per_rank {
                for bank in 0..g.banks_per_bank_group {
                    for row in (0..g.rows_per_bank).step_by(97) {
                        let a = DramAddr { channel: 0, rank, bank_group: bg, bank, row, column: 0 };
                        assert!(seen.insert(a.global_row_id(&g)));
                    }
                }
            }
        }
    }

    #[test]
    fn victim_rows_are_adjacent_and_clamped() {
        let g = DramGeometry::paper_default();
        let mid = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 100, column: 0 };
        let victims = mid.victim_rows(&g);
        assert_eq!(victims.len(), 2);
        assert_eq!(victims[0].row, 99);
        assert_eq!(victims[1].row, 101);

        let first = mid.with_row(0);
        assert_eq!(first.victim_rows(&g).len(), 1);
        let last = mid.with_row(g.rows_per_bank - 1);
        assert_eq!(last.victim_rows(&g).len(), 1);
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let g = DramGeometry::tiny();
        let bad = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: g.rows_per_bank, column: 0 };
        assert!(matches!(bad.validate(&g), Err(DramError::AddressOutOfRange { field: "row", .. })));
    }
}
