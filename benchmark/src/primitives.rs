//! Fixed-input timings of single public functions of each layer.
//!
//! A layer's share of an end-to-end number can only shrink by what the
//! layer costs; these say what each costs on its own, with paper-sized
//! entries (16-byte keys, 1 KiB values, 4 KiB blocks, 2 MiB tables). Inputs
//! do not depend on `--seed`. Each timing is the median of [`REPS`]
//! repetitions; the whole pass takes about a second.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ldc::client::proto::{
    decode_response, encode_request, encode_response, Request, Response, ResponseBody, Status,
    NO_SHARD,
};
use ldc::lsm::block::{Block, BlockBuilder};
use ldc::lsm::cache::BlockCache;
use ldc::lsm::crc32c::crc32c;
use ldc::lsm::filter::BloomFilter;
use ldc::lsm::iterator::{InternalIterator, MergingIterator, VecIterator};
use ldc::lsm::memtable::MemTable;
use ldc::lsm::table::{open_table, TableBuilder};
use ldc::lsm::types::{encode_internal_key, ValueType, MAX_SEQUENCE};
use ldc::lsm::wal::LogWriter;
use ldc::obs::LatencyHistogram;
use ldc::server::ShardRouter;
use ldc::ssd::{IoClass, MemStorage, StorageBackend};

use crate::plan::{codec, KeyTable};
use crate::stats::median;

/// Repetitions each timing is the median of.
const REPS: usize = 5;
/// Entries of 1 KiB that fill one 2 MiB memtable or SSTable.
const TABLE_ENTRIES: u32 = 2_000;

/// Median over [`REPS`] runs of `body`, in nanoseconds per unit, where one
/// run of `body` does `units` units of work.
fn time_per_unit(units: u64, mut body: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&runs)
}

/// Runs every primitive; metric name to nanoseconds.
pub fn run() -> BTreeMap<String, Option<f64>> {
    let mut out = BTreeMap::new();
    let mut set = |name: &str, ns: f64| {
        debug_assert!(
            crate::spec::metric(name).is_some(),
            "undeclared metric {name}"
        );
        out.insert(name.to_string(), Some(ns));
    };
    let keys = KeyTable::new(u64::from(TABLE_ENTRIES));
    let order = keys.sorted(u64::from(TABLE_ENTRIES));
    let value = codec().value(0, 0);
    let ikey = |i: u32| encode_internal_key(keys.get(i), u64::from(i) + 1, ValueType::Value);
    let sorted_ikeys: Vec<Vec<u8>> = order.iter().map(|&i| ikey(i)).collect();

    let page = vec![0xabu8; 4096];
    set(
        "lsm.crc32c.ns_per_kib",
        time_per_unit(4 * 4096, || {
            for _ in 0..4096 {
                black_box(crc32c(black_box(&page)));
            }
        }),
    );

    let user_keys: Vec<&[u8]> = (0..TABLE_ENTRIES).map(|i| &keys.get(i)[..]).collect();
    set(
        "lsm.filter.build_ns_per_key",
        time_per_unit(50 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..50 {
                black_box(BloomFilter::build(black_box(&user_keys), 10));
            }
        }),
    );
    let filter = BloomFilter::build(&user_keys, 10);
    let absent = KeyTable::new(2 * u64::from(TABLE_ENTRIES));
    set(
        "lsm.filter.query_ns",
        time_per_unit(50 * 2 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..50 {
                // Half present, half absent.
                for i in 0..2 * TABLE_ENTRIES {
                    black_box(filter.may_contain(absent.get(i)));
                }
            }
        }),
    );

    // A data block: four 1 KiB entries fill 4 KiB.
    set(
        "lsm.block.build_ns_per_entry",
        time_per_unit(u64::from(TABLE_ENTRIES) * 10, || {
            for _ in 0..10 {
                for chunk in sorted_ikeys.chunks(4) {
                    let mut builder = BlockBuilder::new(16);
                    for k in chunk {
                        builder.add(k, &value);
                    }
                    black_box(builder.finish());
                }
            }
        }),
    );
    // An index-shaped block: one short entry per data block of a 2 MiB
    // table, the block every table lookup seeks first.
    let index_block = {
        let mut builder = BlockBuilder::new(16);
        for k in sorted_ikeys.iter().step_by(4) {
            builder.add(k, b"0123456789");
        }
        Block::new(bytes::Bytes::copy_from_slice(&builder.finish())).expect("well-formed block")
    };
    set(
        "lsm.block.seek_ns",
        time_per_unit(20 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..20 {
                for k in &sorted_ikeys {
                    let mut it = index_block.iter();
                    it.seek(k);
                    black_box(it.valid());
                }
            }
        }),
    );

    set(
        "lsm.memtable.add_ns",
        time_per_unit(5 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..5 {
                let mem = MemTable::new(7);
                for i in 0..TABLE_ENTRIES {
                    mem.add(u64::from(i) + 1, ValueType::Value, keys.get(i), &value);
                }
                black_box(mem.len());
            }
        }),
    );
    let mem = MemTable::new(7);
    for i in 0..TABLE_ENTRIES {
        mem.add(u64::from(i) + 1, ValueType::Value, keys.get(i), &value);
    }
    set(
        "lsm.memtable.get_ns",
        time_per_unit(20 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..20 {
                for i in 0..TABLE_ENTRIES {
                    black_box(mem.get(keys.get(i), MAX_SEQUENCE));
                }
            }
        }),
    );

    let build_table = || {
        let mut builder = TableBuilder::new(4096, 16, 10);
        for k in &sorted_ikeys {
            builder.add(k, &value);
        }
        builder.finish()
    };
    set(
        "lsm.table.build_ns_per_entry",
        time_per_unit(5 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..5 {
                black_box(build_table().bytes.len());
            }
        }),
    );

    let storage = MemStorage::with_default_device();
    storage
        .write_file("000001.sst", &build_table().bytes, IoClass::Other)
        .expect("fresh device has room");
    let table = open_table(
        Arc::clone(&storage) as Arc<dyn StorageBackend>,
        "000001.sst",
        1,
        Arc::new(BlockCache::new(8 << 20)),
    )
    .expect("table just built");
    // The whole 2 MiB table fits the 8 MiB cache: after the first pass
    // every lookup is filter + index seek + cached block seek.
    let lookup_all = || {
        for i in 0..TABLE_ENTRIES {
            black_box(
                table
                    .get(keys.get(i), MAX_SEQUENCE, IoClass::UserRead)
                    .expect("table readable"),
            );
        }
    };
    lookup_all();
    set(
        "lsm.table.get_ns",
        time_per_unit(10 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..10 {
                lookup_all();
            }
        }),
    );
    let hot = BlockCache::new(8 << 20);
    let data_block = {
        let mut builder = BlockBuilder::new(16);
        for k in &sorted_ikeys[..4] {
            builder.add(k, &value);
        }
        bytes::Bytes::copy_from_slice(&builder.finish())
    };
    let load = || Block::new(data_block.clone());
    hot.get_or_load((9, 0), load).expect("well-formed block");
    set(
        "lsm.cache.hit_ns",
        time_per_unit(500_000, || {
            for _ in 0..500_000 {
                black_box(hot.get_or_load(black_box((9, 0)), load).expect("cached"));
            }
        }),
    );

    // Four sorted runs of short entries, merged to the end.
    let runs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = (0..4)
        .map(|r| {
            sorted_ikeys
                .iter()
                .skip(r)
                .step_by(4)
                .map(|k| (k.clone(), b"v".to_vec()))
                .collect()
        })
        .collect();
    set(
        "lsm.iterator.merge_next_ns",
        time_per_unit(20 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..20 {
                let children: Vec<Box<dyn InternalIterator>> = runs
                    .iter()
                    .map(|run| Box::new(VecIterator::new(run.clone())) as Box<dyn InternalIterator>)
                    .collect();
                let mut merged = MergingIterator::new(children);
                merged.seek_to_first();
                while merged.valid() {
                    black_box(merged.key());
                    merged.next();
                }
            }
        }),
    );

    let record = vec![0x5au8; 1024 + 16 + 13];
    set(
        "lsm.wal.add_record_ns",
        time_per_unit(20_000, || {
            let mut log = LogWriter::new(
                Arc::clone(&storage) as Arc<dyn StorageBackend>,
                "000002.log",
                IoClass::WalWrite,
            );
            for _ in 0..20_000 {
                log.add_record(&record).expect("fresh device has room");
            }
            storage.delete("000002.log").expect("log just written");
        }),
    );
    set(
        "ssd.mem.append_1k_ns",
        time_per_unit(20_000, || {
            for _ in 0..20_000 {
                storage
                    .append("raw.log", &record[..1024], IoClass::WalWrite)
                    .expect("fresh device has room");
            }
            storage.delete("raw.log").expect("log just written");
        }),
    );
    set(
        "ssd.mem.read_4k_ns",
        time_per_unit(100_000, || {
            for i in 0..100_000u64 {
                // Stride through the table's 4 KiB pages.
                let offset = (i * 37 % 500) * 4096;
                black_box(
                    storage
                        .read("000001.sst", offset, 4096, IoClass::UserRead)
                        .expect("in range"),
                );
            }
        }),
    );

    let put = Request::Put {
        key: keys.get(0).to_vec(),
        value: value.clone(),
    };
    set(
        "client.proto.encode_put_ns",
        time_per_unit(100_000, || {
            for i in 0..100_000u64 {
                black_box(encode_request(i, black_box(&put)));
            }
        }),
    );
    let response = encode_response(&Response {
        req_id: 1,
        status: Status::Ok,
        shard: NO_SHARD,
        queue_ns: 0,
        service_ns: 0,
        body: ResponseBody::Value(Some(value.clone())),
    });
    set(
        "client.proto.decode_response_ns",
        time_per_unit(100_000, || {
            for _ in 0..100_000 {
                black_box(decode_response(black_box(&response)).expect("just encoded"));
            }
        }),
    );
    let router = ShardRouter::new(4);
    set(
        "server.router.shard_of_ns",
        time_per_unit(500 * u64::from(TABLE_ENTRIES), || {
            for _ in 0..500 {
                for i in 0..TABLE_ENTRIES {
                    black_box(router.shard_of(keys.get(i)));
                }
            }
        }),
    );
    let mut histogram = LatencyHistogram::new();
    set(
        "obs.histogram_record_ns",
        time_per_unit(2_000_000, || {
            for i in 0..2_000_000u64 {
                histogram.record(black_box(i * 37 % 1_000_000));
            }
        }),
    );
    black_box(histogram.count());
    out
}
