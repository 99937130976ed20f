//! Memory-system substrates for the stash reproduction.
//!
//! Everything the paper's evaluation platform provides below the stash
//! itself, built from scratch:
//!
//! * [`addr`] — typed virtual/physical addresses, words, lines, pages;
//! * [`tile`] — the strided 1-D/2-D tile descriptor shared by `AddMap` and
//!   the DMA engine (Figure 2 of the paper);
//! * [`paging`] — a demand-allocating page table;
//! * [`coherence`] — the DeNovo word-granularity coherence state machine
//!   (Invalid / Shared / Registered) the paper extends for the stash;
//! * [`cache`] — a set-associative write-back cache with line-granularity
//!   tags and word-granularity DeNovo state (the GPU and CPU L1s);
//! * [`llc`] — the banked shared NUCA L2 that doubles as the registry
//!   (directory): it records which core (and which stash-map entry) holds
//!   the up-to-date copy of each word;
//! * [`scratchpad`] — the directly addressed, banked local memory;
//! * [`dma`] — a D2MA-style engine that preloads scratchpads with strided
//!   tiles and writes them back, bypassing the L1.
//!
//! # Example
//!
//! ```
//! use mem::addr::VAddr;
//! use mem::paging::PageTable;
//!
//! let mut pt = PageTable::new(4096);
//! let pa = pt.translate(VAddr(0x1_2345));
//! assert_eq!(pt.translate(VAddr(0x1_2345)), pa); // stable mapping
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod cache;
pub mod coherence;
pub mod dma;
pub mod llc;
pub mod paging;
pub mod scratchpad;
pub mod tile;

pub use addr::{LineAddr, PAddr, VAddr, WORD_BYTES};
pub use cache::DenovoCache;
pub use coherence::WordState;
pub use llc::{CoreId, Llc};
pub use scratchpad::Scratchpad;
pub use tile::TileMap;
