//! Multi-process cache-safety pins: two independent `ResultCache`
//! instances sharing one directory — the moral equivalent of two sweep
//! processes pointed at the same `--cache` — must stay consistent under
//! racing puts and gets, and must never serve a torn entry.

use olab_grid::{CacheTier, CacheValue, Reader, ResultCache, Writer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A small but multi-field payload so torn writes have something to tear.
#[derive(Debug, Clone, PartialEq)]
struct Payload {
    id: u64,
    metric: f64,
    tag: String,
}

impl CacheValue for Payload {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        w.put_f64(self.metric);
        w.put_str(&self.tag);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Payload {
            id: r.get_u64()?,
            metric: r.get_f64()?,
            tag: r.get_str()?,
        })
    }
}

fn payload(i: u64) -> Payload {
    Payload {
        id: i,
        metric: i as f64 * 0.5 - 3.0,
        tag: format!("cell payload {i}"),
    }
}

fn descriptor(i: u64) -> String {
    format!("concurrent writer cell {i}")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("olab-grid-concurrent-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_instances_racing_the_same_directory_stay_consistent() {
    let dir = temp_dir("race");
    let a: ResultCache<Payload> = ResultCache::with_disk(&dir).unwrap();
    let b: ResultCache<Payload> = ResultCache::with_disk(&dir).unwrap();
    let wrong = AtomicUsize::new(0);

    // Both instances write and read the same key space concurrently, with
    // interleaved orders, across several rounds. Every get must be either
    // a miss or the exact right payload — never a torn or foreign value.
    std::thread::scope(|scope| {
        for (cache, stride) in [(&a, 1u64), (&b, 3u64)] {
            let wrong = &wrong;
            scope.spawn(move || {
                for round in 0..3u64 {
                    for n in 0..64u64 {
                        let i = (n * stride + round * 7) % 64;
                        cache.insert(&descriptor(i), payload(i));
                        if let Some((got, _tier)) = cache.lookup(&descriptor((i + 13) % 64)) {
                            if got != payload((i + 13) % 64) {
                                wrong.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(wrong.load(Ordering::SeqCst), 0, "a wrong value was served");
    a.flush();
    b.flush();

    // After the dust settles, a third instance sees one intact entry per
    // key — no torn files, no quarantines, no leftover tmp files.
    let fresh: ResultCache<Payload> = ResultCache::with_disk(&dir).unwrap();
    for i in 0..64u64 {
        assert_eq!(
            fresh.lookup(&descriptor(i)),
            Some((payload(i), CacheTier::Disk)),
            "cell {i} must be intact on disk"
        );
    }
    assert_eq!(fresh.counters().quarantined, 0);
    let tmps = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(tmps, 0, "every racing write renamed its tmp into place");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_entry_planted_mid_race_is_never_served() {
    let dir = temp_dir("torn");
    let writer: ResultCache<Payload> = ResultCache::with_disk(&dir).unwrap();
    writer.insert(&descriptor(0), payload(0));
    writer.flush();
    let key = ResultCache::<Payload>::key_of(&descriptor(0));
    let entry = dir.join(format!("{key:016x}.cell"));
    let whole = std::fs::read(&entry).unwrap();

    // A "reader process" hammers the entry while this thread repeatedly
    // tears it (truncated rewrite) and heals it (full rewrite). The reader
    // must only ever observe the correct payload or a miss.
    let served_wrong = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let entry = &entry;
        let whole = &whole;
        let served_wrong = &served_wrong;
        let dir = &dir;
        scope.spawn(move || {
            for _ in 0..200 {
                let reader: ResultCache<Payload> = ResultCache::with_disk(dir).unwrap();
                if let Some((got, _)) = reader.lookup(&descriptor(0)) {
                    if got != payload(0) {
                        served_wrong.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        });
        for cut in [1usize, 8, whole.len() / 2, whole.len() - 1] {
            for _ in 0..25 {
                let _ = std::fs::write(entry, &whole[..cut]);
                let _ = std::fs::write(entry, whole.as_slice());
            }
        }
    });
    assert_eq!(
        served_wrong.load(Ordering::SeqCst),
        0,
        "a torn entry decoded into a wrong answer"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
