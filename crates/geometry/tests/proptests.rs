//! Property-based tests for the geometry substrate.

use ganopc_geometry::layout::union_area;
use ganopc_geometry::{drc, textfmt, ClipSynthesizer, DesignRules, Layout, Rect};
use proptest::prelude::*;

fn rect() -> impl Strategy<Value = Rect> {
    (0i64..1000, 0i64..1000, 1i64..300, 1i64..300)
        .prop_map(|(x, y, w, h)| Rect::from_origin_size(x, y, w, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Intersection is commutative and contained in both operands.
    #[test]
    fn intersection_axioms(a in rect(), b in rect()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(i.area() <= a.area().min(b.area()));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    /// Gap is symmetric and zero iff the rects intersect or abut.
    #[test]
    fn gap_symmetry(a in rect(), b in rect()) {
        prop_assert_eq!(a.gap(&b), b.gap(&a));
        if a.intersects(&b) {
            prop_assert_eq!(a.gap(&b), 0);
        }
    }

    /// Union area is translation invariant.
    #[test]
    fn union_area_translation_invariant(
        rects in prop::collection::vec(rect(), 1..10),
        dx in -500i64..500,
        dy in -500i64..500,
    ) {
        let moved: Vec<Rect> = rects.iter().map(|r| r.translate(dx, dy)).collect();
        prop_assert_eq!(union_area(&rects), union_area(&moved));
    }

    /// Inclusion–exclusion holds for two rectangles.
    #[test]
    fn union_area_inclusion_exclusion(a in rect(), b in rect()) {
        let overlap = a.intersection(&b).map(|i| i.area()).unwrap_or(0);
        prop_assert_eq!(union_area(&[a, b]), a.area() + b.area() - overlap);
    }

    /// The synthesizer emits DRC-clean, non-empty clips for any seed.
    #[test]
    fn synthesizer_always_clean(seed in 0u64..5000) {
        let rules = DesignRules::m1_32nm();
        let clip = ClipSynthesizer::new(rules, 2048, 6).synthesize(seed);
        prop_assert!(!clip.is_empty());
        let violations = drc::check(&clip, &rules);
        prop_assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }

    /// Rasterized coverage never exceeds 1 and total never exceeds the
    /// frame area.
    #[test]
    fn raster_coverage_bounds(rects in prop::collection::vec(rect(), 0..8)) {
        let clip = Layout::with_shapes(Rect::new(0, 0, 1024, 1024), rects);
        let raster = clip.rasterize_raster(64, 64);
        prop_assert!(raster.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!(raster.sum() <= (64.0 * 64.0) + 1e-3);
    }

    /// Pooling then nearest upsampling preserves the mean.
    #[test]
    fn pool_upsample_mean(values in prop::collection::vec(0.0f32..1.0, 64)) {
        let r = ganopc_geometry::raster::Raster::from_vec(8, 8, values);
        let round = r.avg_pool(2).upsample_nearest(2);
        prop_assert!((round.mean() - r.mean()).abs() < 1e-5);
    }
}

/// A valid text layout that uses every line kind; the mutation tests below
/// corrupt it.
const VALID_LAYOUT: &str = "\
# mutation seed
frame 0 0 2048 2048
rect 100 100 180 700
rect 300 200 380 1100
poly 500,500 900,500 900,580 580,580 580,900 500,900
";

/// Integer spellings a hostile file might carry: the i64 extremes, the
/// values just past the reader's ±2^30 nm bound, the bound itself, and
/// tokens that do not fit an i64 at all.
const HOSTILE_INTEGERS: [&str; 10] = [
    "-9223372036854775808",
    "9223372036854775807",
    "1073741825",
    "-1073741825",
    "1073741824",
    "-1073741824",
    "0",
    "-0",
    "18446744073709551616",
    "99999999999999999999999999",
];

/// A mutated layout must either fail with a typed error or parse into a
/// layout whose area and raster can be computed without panicking.
fn parses_or_fails_typed(text: &str) {
    if let Ok(layout) = textfmt::parse_layout(text) {
        assert!(layout.pattern_area() >= 0, "{text}");
        let raster = layout.rasterize_raster(64, 64);
        assert!(raster.as_slice().iter().all(|v| v.is_finite()), "{text}");
    }
}

/// Byte ranges of the integer fields in `text` (optional sign, digits).
fn integer_fields(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        if bytes[i] == b'-' {
            i += 1;
        }
        let digits = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i > digits {
            fields.push((start, i));
        } else {
            i = start + 1;
        }
    }
    fields
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating a valid layout at any byte offset.
    #[test]
    fn truncated_layout_is_typed(cut in 0usize..VALID_LAYOUT.len()) {
        parses_or_fails_typed(&VALID_LAYOUT[..cut]);
    }

    /// Flipping one bit of one byte.
    #[test]
    fn bit_flipped_layout_is_typed(offset in 0usize..VALID_LAYOUT.len(), bit in 0u32..8) {
        let mut bytes = VALID_LAYOUT.as_bytes().to_vec();
        bytes[offset] ^= 1 << bit;
        parses_or_fails_typed(&String::from_utf8_lossy(&bytes));
    }

    /// Replacing one or two integer fields with hostile values.
    #[test]
    fn hostile_integer_fields_are_typed(
        picks in prop::collection::vec((0usize..64, 0..HOSTILE_INTEGERS.len()), 1..3),
    ) {
        let mut text = VALID_LAYOUT.to_string();
        for (field, value) in picks {
            let fields = integer_fields(&text);
            let (start, end) = fields[field % fields.len()];
            text.replace_range(start..end, HOSTILE_INTEGERS[value]);
        }
        parses_or_fails_typed(&text);
    }
}
