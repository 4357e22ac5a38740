//! Error type shared by every parsing layer in this crate.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// An error raised while parsing or validating XML, a DTD, or a schema.
///
/// Every variant carries the byte offset in the input at which the problem
/// was detected, so callers can produce actionable diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Input ended while a construct was still open.
    UnexpectedEof {
        offset: usize,
        context: &'static str,
    },
    /// A character that is illegal at this position.
    UnexpectedChar {
        offset: usize,
        found: char,
        expected: &'static str,
    },
    /// `</b>` closing an element opened as `<a>`.
    MismatchedTag {
        offset: usize,
        open: String,
        close: String,
    },
    /// An entity reference that is not one of the five predefined ones
    /// and not a valid character reference.
    BadEntity { offset: usize, entity: String },
    /// A name (element, attribute) that violates XML name rules.
    BadName { offset: usize, name: String },
    /// The same attribute appears twice on one element.
    DuplicateAttribute { offset: usize, name: String },
    /// Text content found outside the document element.
    TextOutsideRoot { offset: usize },
    /// More than one document element, or none at all.
    BadDocumentStructure { offset: usize, detail: &'static str },
    /// A start tag that would nest deeper than
    /// [`MAX_DEPTH`](crate::parser::MAX_DEPTH) elements; `depth` is the
    /// level it would have opened.
    TooDeep { offset: usize, depth: usize },
    /// A DTD declaration this subset does not accept.
    Dtd { offset: usize, detail: String },
    /// A schema-level inconsistency (unknown element, cycle, ...).
    Schema { detail: String },
}

impl Error {
    /// Byte offset of the error in the source text, when known.
    pub fn offset(&self) -> Option<usize> {
        match self {
            Error::UnexpectedEof { offset, .. }
            | Error::UnexpectedChar { offset, .. }
            | Error::MismatchedTag { offset, .. }
            | Error::BadEntity { offset, .. }
            | Error::BadName { offset, .. }
            | Error::DuplicateAttribute { offset, .. }
            | Error::TextOutsideRoot { offset }
            | Error::BadDocumentStructure { offset, .. }
            | Error::TooDeep { offset, .. }
            | Error::Dtd { offset, .. } => Some(*offset),
            Error::Schema { .. } => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof { offset, context } => {
                write!(
                    f,
                    "unexpected end of input at byte {offset} while parsing {context}"
                )
            }
            Error::UnexpectedChar {
                offset,
                found,
                expected,
            } => {
                write!(
                    f,
                    "unexpected character {found:?} at byte {offset}, expected {expected}"
                )
            }
            Error::MismatchedTag {
                offset,
                open,
                close,
            } => {
                write!(
                    f,
                    "closing tag </{close}> at byte {offset} does not match <{open}>"
                )
            }
            Error::BadEntity { offset, entity } => {
                write!(f, "unknown entity &{entity}; at byte {offset}")
            }
            Error::BadName { offset, name } => {
                write!(f, "invalid XML name {name:?} at byte {offset}")
            }
            Error::DuplicateAttribute { offset, name } => {
                write!(f, "duplicate attribute {name:?} at byte {offset}")
            }
            Error::TextOutsideRoot { offset } => {
                write!(
                    f,
                    "text content outside the document element at byte {offset}"
                )
            }
            Error::BadDocumentStructure { offset, detail } => {
                write!(f, "malformed document at byte {offset}: {detail}")
            }
            Error::TooDeep { offset, depth } => write!(
                f,
                "element at byte {offset} would nest {depth} deep, past the limit of {}",
                crate::parser::MAX_DEPTH
            ),
            Error::Dtd { offset, detail } => write!(f, "DTD error at byte {offset}: {detail}"),
            Error::Schema { detail } => write!(f, "schema error: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

/// A human-oriented source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in characters, not bytes).
    pub column: usize,
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// Converts a byte offset into a [`Position`] within `src`. Offsets past
/// the end clamp to the final position.
pub fn position_of(src: &str, offset: usize) -> Position {
    let offset = offset.min(src.len());
    let mut line = 1;
    let mut column = 1;
    for (i, c) in src.char_indices() {
        if i >= offset {
            break;
        }
        if c == '\n' {
            line += 1;
            column = 1;
        } else {
            column += 1;
        }
    }
    Position { line, column }
}

impl Error {
    /// Renders the error with a line/column position resolved against the
    /// source it came from — what a CLI shows its user.
    pub fn display_in(&self, src: &str) -> String {
        match self.offset() {
            Some(off) => format!("{} ({})", self, position_of(src, off)),
            None => self.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset() {
        let e = Error::BadEntity {
            offset: 17,
            entity: "nbsp".into(),
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("nbsp"));
        assert_eq!(e.offset(), Some(17));
    }

    #[test]
    fn positions_resolve_lines_and_columns() {
        let src = "first\nsecond line\nthird";
        assert_eq!(position_of(src, 0), Position { line: 1, column: 1 });
        assert_eq!(position_of(src, 6), Position { line: 2, column: 1 });
        assert_eq!(position_of(src, 13), Position { line: 2, column: 8 });
        assert_eq!(position_of(src, 9999), Position { line: 3, column: 6 });
    }

    #[test]
    fn display_in_attaches_position() {
        let src = "<a>\n  <b oops</a>";
        let err = crate::parser::parse_events(src).unwrap_err();
        let rendered = err.display_in(src);
        assert!(rendered.contains("line 2"), "{rendered}");
    }

    #[test]
    fn multibyte_columns_count_characters() {
        let src = "é✓x";
        // Offset of 'x' is 4 bytes in, but it is the 3rd character.
        let off = src.char_indices().nth(2).unwrap().0;
        assert_eq!(position_of(src, off).column, 3);
    }

    #[test]
    fn schema_error_has_no_offset() {
        let e = Error::Schema {
            detail: "cycle".into(),
        };
        assert_eq!(e.offset(), None);
        assert!(e.to_string().contains("cycle"));
    }
}
