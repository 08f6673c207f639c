//! A minimal line-oriented text format for layouts.
//!
//! Real EDA flows would hand this library GDSII/OASIS data; for a
//! dependency-free reproduction we define a trivially parseable exchange
//! format instead:
//!
//! ```text
//! # comments and blank lines are ignored
//! frame 0 0 2048 2048
//! rect 100 100 180 700
//! poly 0,0 200,0 200,80 80,80 80,300 0,300
//! ```
//!
//! * `frame x0 y0 x1 y1` — required, once, before any shape;
//! * `rect x0 y0 x1 y1` — an axis-aligned rectangle;
//! * `poly x,y x,y ...` — a rectilinear polygon of at most 1 024 vertices
//!   (decomposed into rectangles on load).
//!
//! Coordinates are integers in nanometers within ±2^30 (about ±1 m), so
//! every width, height and area the layout derives fits in an `i64`.

use crate::polygon::{Polygon, PolygonError};
use crate::{Layout, Rect};
use std::fmt;
use std::path::Path;

/// Largest coordinate magnitude the reader accepts, nm. Widths and heights
/// then stay within 2^31 and areas within 2^62.
const MAX_COORD_NM: i64 = 1 << 30;

/// Errors from parsing the text layout format.
#[derive(Debug)]
pub enum ParseLayoutError {
    /// A line could not be interpreted.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Shape lines appeared before (or without) a `frame` line.
    MissingFrame,
    /// A polygon failed validation.
    Polygon {
        /// 1-based line number.
        line: usize,
        /// The underlying polygon error.
        source: PolygonError,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for ParseLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseLayoutError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseLayoutError::MissingFrame => {
                write!(f, "layout must declare a frame before shapes")
            }
            ParseLayoutError::Polygon { line, source } => {
                write!(f, "line {line}: invalid polygon: {source}")
            }
            ParseLayoutError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl std::error::Error for ParseLayoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseLayoutError::Polygon { source, .. } => Some(source),
            ParseLayoutError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ParseLayoutError {
    fn from(e: std::io::Error) -> Self {
        ParseLayoutError::Io(e)
    }
}

/// Serializes a layout to the text format.
pub fn layout_to_string(layout: &Layout) -> String {
    let f = layout.frame();
    let mut out = format!("frame {} {} {} {}\n", f.x0, f.y0, f.x1, f.y1);
    for r in layout.shapes() {
        out.push_str(&format!("rect {} {} {} {}\n", r.x0, r.y0, r.x1, r.y1));
    }
    out
}

/// Parses a layout from the text format.
///
/// # Errors
///
/// Returns [`ParseLayoutError`] with a line number on any malformed input.
pub fn parse_layout(text: &str) -> Result<Layout, ParseLayoutError> {
    let mut layout: Option<Layout> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        // PANIC: the line was checked non-empty above, so a token exists.
        let keyword = tokens.next().expect("nonempty line");
        let rest: Vec<&str> = tokens.collect();
        let syntax = |message: String| ParseLayoutError::Syntax { line: line_no, message };
        match keyword {
            "frame" => {
                let coords = parse_ints(&rest).map_err(syntax)?;
                if coords.len() != 4 {
                    return Err(syntax(format!("frame needs 4 coordinates, got {}", coords.len())));
                }
                let frame = Rect::new(coords[0], coords[1], coords[2], coords[3]);
                if frame.is_empty() {
                    return Err(syntax("frame encloses no area".into()));
                }
                if layout.is_some() {
                    return Err(syntax("duplicate frame".into()));
                }
                layout = Some(Layout::new(frame));
            }
            "rect" => {
                let target = layout.as_mut().ok_or(ParseLayoutError::MissingFrame)?;
                let coords = parse_ints(&rest).map_err(syntax)?;
                if coords.len() != 4 {
                    return Err(syntax(format!("rect needs 4 coordinates, got {}", coords.len())));
                }
                let r = Rect::new(coords[0], coords[1], coords[2], coords[3]);
                if r.is_empty() {
                    return Err(syntax("rect encloses no area".into()));
                }
                target.push(r);
            }
            "poly" => {
                let target = layout.as_mut().ok_or(ParseLayoutError::MissingFrame)?;
                let mut vertices = Vec::with_capacity(rest.len());
                for pair in &rest {
                    let Some((xs, ys)) = pair.split_once(',') else {
                        return Err(syntax(format!("expected x,y pair, got '{pair}'")));
                    };
                    vertices
                        .push((parse_coord(xs).map_err(syntax)?, parse_coord(ys).map_err(syntax)?));
                }
                let polygon = Polygon::new(vertices)
                    .map_err(|source| ParseLayoutError::Polygon { line: line_no, source })?;
                target.push_polygon(&polygon);
            }
            other => return Err(syntax(format!("unknown keyword '{other}'"))),
        }
    }
    layout.ok_or(ParseLayoutError::MissingFrame)
}

fn parse_ints(tokens: &[&str]) -> Result<Vec<i64>, String> {
    tokens.iter().map(|t| parse_coord(t)).collect()
}

/// Parses one coordinate, rejecting values beyond ±[`MAX_COORD_NM`].
fn parse_coord(token: &str) -> Result<i64, String> {
    let value: i64 = token.parse().map_err(|_| format!("invalid coordinate '{token}'"))?;
    if !(-MAX_COORD_NM..=MAX_COORD_NM).contains(&value) {
        return Err(format!("coordinate {value} outside ±{MAX_COORD_NM} nm"));
    }
    Ok(value)
}

/// Writes a layout file.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_layout<P: AsRef<Path>>(path: P, layout: &Layout) -> Result<(), ParseLayoutError> {
    crate::io::write_atomic(path, layout_to_string(layout).as_bytes())?;
    Ok(())
}

/// Reads a layout file.
///
/// # Errors
///
/// Propagates I/O failures and parse errors.
pub fn read_layout<P: AsRef<Path>>(path: P) -> Result<Layout, ParseLayoutError> {
    parse_layout(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_rect_layout() {
        let mut clip = Layout::new(Rect::new(0, 0, 2048, 2048));
        clip.push(Rect::from_origin_size(100, 100, 80, 700));
        clip.push(Rect::from_origin_size(300, 200, 80, 900));
        let text = layout_to_string(&clip);
        let parsed = parse_layout(&text).unwrap();
        assert_eq!(parsed, clip);
    }

    #[test]
    fn parses_polygons_and_comments() {
        let text = "\
# an L-shape clip
frame 0 0 1024 1024

poly 0,0 200,0 200,80 80,80 80,300 0,300
rect 500 500 580 900
";
        let clip = parse_layout(text).unwrap();
        assert_eq!(clip.frame(), Rect::new(0, 0, 1024, 1024));
        assert_eq!(clip.shapes().len(), 3); // 2 from the polygon + 1 rect
        assert_eq!(clip.pattern_area(), 200 * 80 + 80 * 220 + 80 * 400);
    }

    #[test]
    fn reports_line_numbers() {
        let text = "frame 0 0 100 100\nrect 1 2 3\n";
        match parse_layout(text) {
            Err(ParseLayoutError::Syntax { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("4 coordinates"), "{message}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_shapes_before_frame() {
        assert!(matches!(parse_layout("rect 0 0 10 10\n"), Err(ParseLayoutError::MissingFrame)));
        assert!(matches!(parse_layout(""), Err(ParseLayoutError::MissingFrame)));
    }

    #[test]
    fn rejects_duplicate_frame_and_bad_tokens() {
        assert!(parse_layout("frame 0 0 10 10\nframe 0 0 20 20\n").is_err());
        assert!(parse_layout("frame 0 0 10 10\nblob 1 2\n").is_err());
        assert!(parse_layout("frame 0 0 10 10\npoly 1,2 3;4 5,6 7,8\n").is_err());
    }

    #[test]
    fn polygon_errors_carry_line() {
        let text = "frame 0 0 100 100\npoly 0,0 5,5 5,0 0,5\n";
        match parse_layout(text) {
            Err(ParseLayoutError::Polygon { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected polygon error, got {other:?}"),
        }
    }

    /// A `poly` line drawing a comb of `teeth` teeth on a base bar (4
    /// vertices per tooth), and the comb's area.
    fn comb_line(teeth: i64) -> (String, i64) {
        let (width, gap, base, height) = (8, 8, 16, 40);
        let right = teeth * (width + gap) - gap;
        let mut line = format!("poly 0,0 {right},0");
        for t in (0..teeth).rev() {
            let x0 = t * (width + gap);
            line += &format!(" {},{} {x0},{}", x0 + width, base + height, base + height);
            if t > 0 {
                line += &format!(" {x0},{base} {},{base}", x0 - gap);
            }
        }
        (line, right * base + teeth * width * height)
    }

    #[test]
    fn polygon_vertex_count_is_bounded() {
        let (line, area) = comb_line(256);
        assert_eq!(line.split_whitespace().count() - 1, 1024);
        let clip = parse_layout(&format!("frame 0 0 8192 8192\n{line}\n")).unwrap();
        assert_eq!(clip.pattern_area(), area);

        let (line, _) = comb_line(257);
        match parse_layout(&format!("frame 0 0 8192 8192\n{line}\n")) {
            Err(ParseLayoutError::Polygon {
                line: 2,
                source: PolygonError::TooManyVertices(1028),
            }) => {}
            other => panic!("expected TooManyVertices(1028) on line 2, got {other:?}"),
        }
    }

    #[test]
    fn rejects_coordinates_that_could_overflow() {
        let limit = MAX_COORD_NM;
        for hostile in [i64::MIN, i64::MAX, limit + 1, -limit - 1] {
            let frame = format!("frame {hostile} 0 10 10\n");
            let rect = format!("frame 0 0 10 10\nrect 0 {hostile} 5 5\n");
            let poly = format!("frame 0 0 10 10\npoly 0,0 {hostile},0 {hostile},5 0,5\n");
            for (text, line) in [(frame, 1), (rect, 2), (poly, 2)] {
                match parse_layout(&text) {
                    Err(ParseLayoutError::Syntax { line: l, message }) => {
                        assert_eq!(l, line, "{text}");
                        assert!(message.contains("outside"), "{message}");
                    }
                    other => panic!("{text}: expected a syntax error, got {other:?}"),
                }
            }
        }
        // The bound itself is accepted, and everything derived from it fits.
        let text =
            format!("frame {} {} {limit} {limit}\nrect 0 0 {limit} {limit}\n", -limit, -limit);
        let clip = parse_layout(&text).unwrap();
        assert_eq!(clip.frame().area(), 4 * limit * limit);
        assert_eq!(clip.pattern_area(), limit * limit);
        assert_eq!(clip.rasterize_raster(4, 4).sum(), 4.0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ganopc-textfmt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clip.layout");
        let mut clip = Layout::new(Rect::new(0, 0, 512, 512));
        clip.push(Rect::new(10, 10, 90, 410));
        write_layout(&path, &clip).unwrap();
        assert_eq!(read_layout(&path).unwrap(), clip);
        std::fs::remove_file(&path).unwrap();
    }
}
