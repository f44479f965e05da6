//! File views: the MPI-IO mechanism behind interleaved writes.
//!
//! `MPI_File_set_view` gives each rank a strided window onto the file
//! (displacement + a vector filetype). BT-style codes write "contiguously"
//! through their view while the file sees an interleaved pattern — exactly
//! the access shape data sieving (paper §II) exists for. This module
//! implements the offset arithmetic and the lowering of view-relative
//! operations onto physical file extents.

/// A strided file view: starting at `disp`, the visible bytes are blocks of
/// `block_len` bytes separated by `stride` bytes (stride ≥ block_len; the
/// classic `MPI_Type_vector` pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileView {
    /// Displacement: physical offset where the view begins.
    pub disp: u64,
    /// Visible bytes per block.
    pub block_len: u64,
    /// Physical distance between consecutive block starts.
    pub stride: u64,
}

impl FileView {
    /// A contiguous (identity) view at a displacement.
    pub fn contiguous(disp: u64) -> FileView {
        FileView {
            disp,
            block_len: 1,
            stride: 1,
        }
    }

    /// The interleaved view of rank `r` among `n` ranks with `block` bytes
    /// per rank per row — BT's cell decomposition: rank r sees block r,
    /// r+n, r+2n, … of the file.
    pub fn interleaved(rank: usize, ranks: usize, block: u64) -> FileView {
        FileView {
            disp: rank as u64 * block,
            block_len: block,
            stride: block * ranks as u64,
        }
    }

    /// Is this view physically contiguous?
    pub fn is_contiguous(&self) -> bool {
        self.block_len == self.stride
    }

    /// Translate a view-relative offset (bytes visible through the view)
    /// into the physical file offset.
    pub fn physical(&self, view_off: u64) -> u64 {
        let block = view_off / self.block_len;
        let within = view_off % self.block_len;
        self.disp + block * self.stride + within
    }

    /// Lower a view-relative extent `[view_off, view_off+len)` to physical
    /// `(offset, length)` extents, in ascending order.
    pub fn map_region(&self, view_off: u64, len: u64) -> Vec<(u64, u64)> {
        if len == 0 {
            return Vec::new();
        }
        if self.is_contiguous() {
            return vec![(self.disp + view_off, len)];
        }
        let mut out = Vec::new();
        let mut cur = view_off;
        let end = view_off + len;
        while cur < end {
            let within = cur % self.block_len;
            let block_remaining = self.block_len - within;
            let take = block_remaining.min(end - cur);
            out.push((self.physical(cur), take));
            cur += take;
        }
        // Merge physically adjacent extents (stride == block_len handled
        // above, but partial first/last blocks can still abut).
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(out.len());
        for (off, len) in out {
            if let Some(last) = merged.last_mut() {
                if last.0 + last.1 == off {
                    last.1 += len;
                    continue;
                }
            }
            merged.push((off, len));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_view_is_identity_plus_disp() {
        let v = FileView::contiguous(100);
        assert!(v.is_contiguous());
        assert_eq!(v.physical(0), 100);
        assert_eq!(v.physical(77), 177);
        assert_eq!(v.map_region(10, 20), vec![(110, 20)]);
    }

    #[test]
    fn interleaved_view_maps_blocks() {
        // 4 ranks, 10-byte blocks; rank 1 sees bytes 10..20, 50..60, ...
        let v = FileView::interleaved(1, 4, 10);
        assert!(!v.is_contiguous());
        assert_eq!(v.physical(0), 10);
        assert_eq!(v.physical(9), 19);
        assert_eq!(v.physical(10), 50);
        assert_eq!(v.map_region(0, 25), vec![(10, 10), (50, 10), (90, 5)]);
    }

    #[test]
    fn map_region_handles_mid_block_starts() {
        let v = FileView::interleaved(0, 2, 8);
        // Start 3 bytes into block 0, span into block 1.
        assert_eq!(v.map_region(3, 10), vec![(3, 5), (16, 5)]);
    }

    #[test]
    fn ranks_tile_the_file_exactly() {
        // The union of all ranks' views covers every byte exactly once.
        let ranks = 3usize;
        let block = 4u64;
        let rows = 5u64;
        let mut covered = vec![0u32; (ranks as u64 * block * rows) as usize];
        for r in 0..ranks {
            let v = FileView::interleaved(r, ranks, block);
            for (off, len) in v.map_region(0, block * rows) {
                for i in off..off + len {
                    covered[i as usize] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
    }

    #[test]
    fn zero_length_region_is_empty() {
        let v = FileView::interleaved(2, 4, 16);
        assert!(v.map_region(100, 0).is_empty());
    }

    #[test]
    fn adjacent_extents_merge() {
        // stride == 2*block for rank 0 and rank 1 alternating; a region
        // that ends exactly at a block boundary then resumes... use a view
        // where partial blocks abut: disp 0, block 10, stride 10 → merge.
        let v = FileView {
            disp: 0,
            block_len: 10,
            stride: 10,
        };
        assert_eq!(v.map_region(5, 20), vec![(5, 20)]);
    }
}
