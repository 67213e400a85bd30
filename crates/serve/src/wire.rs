//! Binary codec impls for the pool's checkpoint types
//! ([`PoolState`], [`ShardState`], [`RouterState`], [`RemapEntry`]) —
//! the serving layer's half of [`diversity::wire`]. A pool checkpoint written with
//! [`diversity::wire::to_bytes`] is the dense on-disk/on-wire form the
//! `divmax-serve` Checkpoint opcode ships; the JSON serde path remains
//! the debuggable one.

use crate::pool::{PoolState, ShardState};
use crate::rebalance::RemapEntry;
use crate::router::RouterState;
use diversity::wire::{BinRead, BinReader, BinWrite, WireError};

impl BinWrite for RouterState {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.kind.write_bin(out);
        self.cursor.write_bin(out);
        self.shards.write_bin(out);
    }
}

impl BinRead for RouterState {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(RouterState {
            kind: BinRead::read_bin(r)?,
            cursor: BinRead::read_bin(r)?,
            shards: BinRead::read_bin(r)?,
        })
    }
}

impl BinWrite for RemapEntry {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.from.write_bin(out);
        self.to.write_bin(out);
    }
}

impl BinRead for RemapEntry {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(RemapEntry {
            from: BinRead::read_bin(r)?,
            to: BinRead::read_bin(r)?,
        })
    }
}

impl<P: BinWrite> BinWrite for ShardState<P> {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.ids.write_bin(out);
        self.points.write_bin(out);
        self.start.write_bin(out);
        self.next_id.write_bin(out);
        self.epsilon.write_bin(out);
        self.dim.write_bin(out);
    }
}

impl<P: BinRead> BinRead for ShardState<P> {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(ShardState {
            ids: BinRead::read_bin(r)?,
            points: BinRead::read_bin(r)?,
            start: BinRead::read_bin(r)?,
            next_id: BinRead::read_bin(r)?,
            epsilon: BinRead::read_bin(r)?,
            dim: BinRead::read_bin(r)?,
        })
    }
}

impl<P: BinWrite> BinWrite for PoolState<P> {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.shards.write_bin(out);
        self.router.write_bin(out);
        self.remap.write_bin(out);
    }
}

impl<P: BinRead> BinRead for PoolState<P> {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(PoolState {
            shards: BinRead::read_bin(r)?,
            router: BinRead::read_bin(r)?,
            remap: BinRead::read_bin(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversity::wire::{from_bytes, to_bytes};

    #[test]
    fn router_state_roundtrips() {
        let state = RouterState {
            kind: "round-robin".into(),
            cursor: 42,
            shards: 4,
        };
        let back: RouterState = from_bytes(&to_bytes(&state)).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn remap_entries_roundtrip() {
        let entries = vec![
            RemapEntry { from: 0, to: 7 },
            RemapEntry {
                from: (3 << 48) | 5,
                to: (1 << 48) | 900,
            },
        ];
        let back: Vec<RemapEntry> = from_bytes(&to_bytes(&entries)).unwrap();
        assert_eq!(back, entries);
    }
}
