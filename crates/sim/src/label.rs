//! Task labels that are formatted only when displayed.
//!
//! A lowered schedule labels thousands of tasks (`st0.L3.f.k2.gpu1`,
//! `x.b.s2->s1.m5`, …), and almost nothing reads them: the grid path never
//! does, and traces, event logs and error messages render them only at
//! the end. A [`Label`] therefore keeps a `&'static str` pattern and up to
//! [`Label::MAX_ARGS`] integers and renders them through
//! [`Display`](fmt::Display): building one allocates nothing, and no label
//! allocates to clone. Hand-built workloads can still use free-form text.

use std::fmt;
use std::sync::Arc;

/// A task label: a static pattern whose `{}` holes are filled, in order,
/// by integer arguments, or free-form text.
///
/// ```
/// use olab_sim::Label;
///
/// let label = Label::new("st{}.L{}.f.k{}.gpu{}").with(0u32).with(3usize).with(2usize).with(1u16);
/// assert_eq!(label.to_string(), "st0.L3.f.k2.gpu1");
/// assert_eq!(label, "st0.L3.f.k2.gpu1");
/// assert_eq!(Label::from("ar.embed"), Label::from(String::from("ar.embed")));
/// ```
///
/// Equality compares the rendered text, so two labels built differently
/// but displaying the same string are equal.
#[derive(Clone)]
pub struct Label(Repr);

#[derive(Clone)]
enum Repr {
    /// Static text, shown verbatim.
    Static(&'static str),
    /// Owned free-form text, shared by every clone.
    Shared(Arc<str>),
    /// `pattern` with its `{}` holes filled by `args[..len]`.
    Pattern {
        pattern: &'static str,
        args: [u32; Label::MAX_ARGS],
        len: u8,
    },
}

impl Label {
    /// The most arguments one pattern takes.
    pub const MAX_ARGS: usize = 4;

    /// A pattern label with no arguments yet; fill its `{}` holes in order
    /// with [`Label::with`].
    pub const fn new(pattern: &'static str) -> Label {
        Label(Repr::Pattern {
            pattern,
            args: [0; Label::MAX_ARGS],
            len: 0,
        })
    }

    /// Fills the next `{}` hole of a pattern label with `arg`.
    ///
    /// # Panics
    ///
    /// Panics if the label is not a pattern, already holds
    /// [`Label::MAX_ARGS`] arguments, or `arg` does not fit in a `u32`.
    pub fn with<T>(mut self, arg: T) -> Label
    where
        T: TryInto<u32>,
        T::Error: fmt::Debug,
    {
        match &mut self.0 {
            Repr::Pattern { args, len, .. } => {
                let slot = args
                    .get_mut(usize::from(*len))
                    .expect("label pattern takes at most Label::MAX_ARGS arguments");
                *slot = arg.try_into().expect("label argument fits in a u32");
                *len += 1;
            }
            Repr::Static(_) | Repr::Shared(_) => panic!("only a pattern label takes arguments"),
        }
        self
    }

    fn render(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match &self.0 {
            Repr::Static(s) => out.write_str(s),
            Repr::Shared(s) => out.write_str(s),
            Repr::Pattern { pattern, args, len } => {
                let mut rest = *pattern;
                let mut filled = args[..usize::from(*len)].iter();
                while let Some(at) = rest.find("{}") {
                    out.write_str(&rest[..at])?;
                    let arg = filled.next().expect("every label hole has an argument");
                    write!(out, "{arg}")?;
                    rest = &rest[at + 2..];
                }
                debug_assert!(
                    filled.next().is_none(),
                    "label {pattern:?} has spare arguments"
                );
                out.write_str(rest)
            }
        }
    }

    /// Whether this label renders exactly as `text`, without rendering it
    /// into a buffer.
    fn renders_as(&self, text: &str) -> bool {
        /// Consumes `rest` as the rendered pieces arrive; fails on the
        /// first mismatch.
        struct Match<'t> {
            rest: &'t str,
        }
        impl fmt::Write for Match<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                match self.rest.strip_prefix(s) {
                    Some(rest) => {
                        self.rest = rest;
                        Ok(())
                    }
                    None => Err(fmt::Error),
                }
            }
        }
        let mut m = Match { rest: text };
        self.render(&mut m).is_ok() && m.rest.is_empty()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.width().is_some() || f.precision().is_some() {
            let mut text = String::new();
            self.render(&mut text)?;
            f.pad(&text)
        } else {
            self.render(f)
        }
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl From<&'static str> for Label {
    fn from(text: &'static str) -> Label {
        Label(Repr::Static(text))
    }
}

impl From<String> for Label {
    fn from(text: String) -> Label {
        Label(Repr::Shared(text.into()))
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        match (&self.0, &other.0) {
            (
                Repr::Pattern { pattern, args, len },
                Repr::Pattern {
                    pattern: p,
                    args: a,
                    len: l,
                },
            ) if pattern == p && args == a && len == l => true,
            (_, Repr::Static(s)) => self.renders_as(s),
            (_, Repr::Shared(s)) => self.renders_as(s),
            (_, Repr::Pattern { .. }) => self.renders_as(&other.to_string()),
        }
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.renders_as(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_render_their_arguments_in_order() {
        let l = Label::new("x.f.s{}->s{}.m{}")
            .with(2u32)
            .with(3usize)
            .with(17u16);
        assert_eq!(l.to_string(), "x.f.s2->s3.m17");
        assert_eq!(Label::new("ar.embed").to_string(), "ar.embed");
        assert_eq!(Label::new("{}{}").with(1u32).with(2u32).to_string(), "12");
    }

    #[test]
    fn free_form_text_renders_verbatim() {
        assert_eq!(Label::from("a{}b").to_string(), "a{}b");
        assert_eq!(Label::from(String::from("t7")).to_string(), "t7");
    }

    #[test]
    fn equality_compares_the_rendered_text() {
        let p = Label::new("adam.gpu{}").with(3u32);
        assert_eq!(p, "adam.gpu3");
        assert_ne!(p, "adam.gpu");
        assert_ne!(p, "adam.gpu30");
        assert_eq!(p, Label::from("adam.gpu3"));
        assert_eq!(Label::from("adam.gpu3"), p);
        assert_eq!(p, p.clone());
        assert_ne!(p, Label::new("adam.gpu{}").with(4u32));
    }

    #[test]
    fn display_honours_width_and_debug_quotes() {
        let p = Label::new("L{}").with(1u32);
        assert_eq!(format!("[{p:>4}]"), "[  L1]");
        assert_eq!(format!("{p:?}"), "\"L1\"");
    }

    #[test]
    #[should_panic(expected = "at most Label::MAX_ARGS")]
    fn a_fifth_argument_panics() {
        let _ = Label::new("{}{}{}{}{}")
            .with(1u32)
            .with(2u32)
            .with(3u32)
            .with(4u32)
            .with(5u32);
    }
}
