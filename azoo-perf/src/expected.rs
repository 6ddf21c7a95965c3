//! `expected.json`: report count and digest of every roster member at
//! the published seed, pinned so that a change to the reference engine
//! itself cannot pass unnoticed. Other seeds have no pinned values; the
//! reference is computed in set-up on every run either way.

use azoo_core::json::{self, Json};
use azoo_zoo::{BenchmarkId, Scale};

use crate::roster;
use crate::setup::baseline;
use crate::stats::{obj, Digest};

const PINNED: &str = include_str!("../expected.json");

fn scale_key(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// The pinned digest of `id` at `scale` and seed 0, if the file has one.
pub fn pinned(scale: Scale, id: BenchmarkId) -> Option<Digest> {
    let doc = json::parse(PINNED).ok()?;
    let entry = doc.get(scale_key(scale))?.get(id.name())?;
    Some(Digest {
        count: entry.get("reports")?.as_i64()? as u64,
        sum: u64::from_str_radix(entry.get("digest")?.as_str()?, 16).ok()?,
    })
}

/// Regenerates `expected.json` from the reference engine
/// (`azoo-perf bless`).
///
/// # Errors
///
/// Propagates the write failure.
pub fn bless() -> std::io::Result<()> {
    let section = |scale: Scale| {
        Json::Obj(
            roster::all_members()
                .into_iter()
                .map(|id| {
                    let (a, input) = roster::build_member(id, scale, 0);
                    let d = baseline(&a, &input);
                    eprintln!("{:?} {}: {} reports", scale, id.name(), d.count);
                    (
                        id.name().to_string(),
                        obj([
                            ("reports", Json::Int(d.count as i64)),
                            ("digest", Json::Str(format!("{:016x}", d.sum))),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let doc = obj([
        ("schema", Json::Str("azoo-perf-expected-v1".into())),
        ("seed", Json::Int(0)),
        ("small", section(Scale::Small)),
        ("tiny", section(Scale::Tiny)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    std::fs::write(path, doc.pretty() + "\n")?;
    eprintln!("wrote {path}");
    Ok(())
}
