//! Task labels that are formatted only when displayed.
//!
//! A lowered schedule labels thousands of tasks (`st0.L3.f.k2.gpu1`,
//! `x.b.s2->s1.m5`, …), and almost nothing reads them: the grid path never
//! does, and traces, event logs and error messages render them only at
//! the end. A [`Label`] therefore keeps a `&'static str` pattern and up to
//! [`Label::MAX_ARGS`] integers and renders them through
//! [`Display`](fmt::Display): building one allocates nothing, and no label
//! allocates to clone. Hand-built workloads can still use free-form text.
//!
//! Lowering builds one label per task, so building one must cost next to
//! nothing. A label is five words with no padding: the text (a `&'static
//! str`, or a thin pointer to shared text), the arguments packed two to a
//! word and placed by shifts, never stored at a computed index, and the
//! argument count. Built where its holes are filled, as the lowerings
//! build theirs, a label stays in registers until it is stored in its
//! task.

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
pub struct Label {
    text: Text,
    /// A pattern's arguments, 32 bits each in order from the low bits of
    /// `args[0]`: the first `len` fill its holes.
    args: [u64; 2],
    /// How many arguments a pattern holds, or [`VERBATIM`] for text shown
    /// as it is. A whole word, so that a label has no padding bytes.
    len: usize,
}

#[derive(Clone)]
enum Text {
    /// A pattern, or static text.
    Static(&'static str),
    /// Owned free-form text, shared by every clone. A thin pointer, so
    /// this enum takes no more room than a `&str`.
    Shared(Arc<String>),
}

/// The `len` of a label whose text is shown verbatim.
const VERBATIM: usize = usize::MAX;

impl Label {
    /// The most arguments one pattern takes.
    pub const MAX_ARGS: usize = 4;

    /// A pattern label with no arguments yet; fill its `{}` holes in order
    /// with [`Label::with`].
    pub const fn new(pattern: &'static str) -> Label {
        Label {
            text: Text::Static(pattern),
            args: [0; 2],
            len: 0,
        }
    }

    /// Fills the next `{}` hole of a pattern label with `arg`.
    ///
    /// # Panics
    ///
    /// Panics if the label is not a pattern, already holds
    /// [`Label::MAX_ARGS`] arguments, or `arg` does not fit in a `u32`.
    #[inline]
    pub fn with<T>(mut self, arg: T) -> Label
    where
        T: TryInto<u32>,
        T::Error: fmt::Debug,
    {
        if self.len >= Label::MAX_ARGS {
            self.refuse_argument();
        }
        let arg: u32 = arg.try_into().expect("label argument fits in a u32");
        // Shifts and ors on the packed words, with no store at a computed
        // index, so a label being built can stay in registers.
        let packed = u128::from(self.args[0]) | u128::from(self.args[1]) << 64;
        let packed = packed | u128::from(arg) << (32 * self.len);
        self.args = [packed as u64, (packed >> 64) as u64];
        self.len += 1;
        self
    }

    /// Panics for a label that takes no further argument: verbatim text,
    /// or a pattern that holds [`Label::MAX_ARGS`] already.
    #[cold]
    #[inline(never)]
    fn refuse_argument(&self) -> ! {
        if self.len == VERBATIM {
            panic!("only a pattern label takes arguments");
        }
        panic!("label pattern takes at most Label::MAX_ARGS arguments");
    }

    /// The text: a pattern, or what a verbatim label shows.
    fn text(&self) -> &str {
        match &self.text {
            Text::Static(s) => s,
            Text::Shared(s) => s,
        }
    }

    /// The `i`-th argument.
    fn arg(&self, i: usize) -> u32 {
        (self.args[i / 2] >> (32 * (i % 2))) as u32
    }

    fn render(&self, out: &mut impl fmt::Write) -> fmt::Result {
        if self.len == VERBATIM {
            return out.write_str(self.text());
        }
        let pattern = self.text();
        let mut rest = pattern;
        let mut filled = (0..self.len).map(|i| self.arg(i));
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
        Label {
            text: Text::Static(text),
            args: [0; 2],
            len: VERBATIM,
        }
    }
}

impl From<String> for Label {
    fn from(text: String) -> Label {
        Label {
            text: Text::Shared(Arc::new(text)),
            args: [0; 2],
            len: VERBATIM,
        }
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        if self.len != VERBATIM
            && (self.len, self.args) == (other.len, other.args)
            && self.text() == other.text()
        {
            return true;
        }
        if other.len == VERBATIM {
            self.renders_as(other.text())
        } else {
            self.renders_as(&other.to_string())
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

    /// Every pattern the lowerings use, and the oracle's generated tasks.
    const PATTERNS: [&str; 44] = [
        "L{}.b.attn.dgrad.k{}.gpu{}",
        "L{}.b.attn.wgrad.k{}.gpu{}",
        "L{}.b.exp.c{}.k{}.gpu{}",
        "L{}.b.mlp.dgrad.k{}.gpu{}",
        "L{}.b.mlp.wgrad.k{}.gpu{}",
        "L{}.b.res.k{}.gpu{}",
        "L{}.b.router.k{}.gpu{}",
        "L{}.b{}.attn.k{}.gpu{}",
        "L{}.b{}.mlp.k{}.gpu{}",
        "L{}.f.attn.k{}.gpu{}",
        "L{}.f.exp.c{}.k{}.gpu{}",
        "L{}.f.mlp.k{}.gpu{}",
        "L{}.f.res.k{}.gpu{}",
        "L{}.f.res1.k{}.gpu{}",
        "L{}.f.res2.k{}.gpu{}",
        "L{}.f.router.k{}.gpu{}",
        "L{}.f{}.attn.k{}.gpu{}",
        "L{}.f{}.mlp.k{}.gpu{}",
        "L{}.rc.attn.k{}.gpu{}",
        "L{}.rc.mlp.k{}.gpu{}",
        "a2a.c.L{}.b.c{}",
        "a2a.c.L{}.f.c{}",
        "a2a.d.L{}.b.c{}",
        "a2a.d.L{}.f.c{}",
        "adam.gpu{}",
        "adam.s{}",
        "ar.b1.L{}",
        "ar.b2.L{}",
        "ar.f1.L{}",
        "ar.f2.L{}",
        "st{}.L{}.b.k{}.gpu{}",
        "st{}.L{}.f.k{}.gpu{}",
        "st{}.accum.L{}.gpu{}",
        "st{}.ag.b.L{}",
        "st{}.ag.f.L{}",
        "st{}.emb.f.k{}.gpu{}",
        "st{}.head.b.k{}.gpu{}",
        "st{}.head.f.k{}.gpu{}",
        "st{}.rs.L{}",
        "s{}.m{}.b.c{}k{}",
        "s{}.m{}.f.c{}k{}",
        "x.b.s{}->s{}.m{}",
        "x.f.s{}->s{}.m{}",
        "t{}",
    ];

    /// The boundary arguments: one and two digits, and the largest `u16`
    /// and `u32`.
    const ARGS: [u32; 5] = [0, 9, 10, u16::MAX as u32, u32::MAX];

    /// The text a pattern renders as: each `{}` replaced, in order, by the
    /// decimal digits of the next argument.
    fn reference(pattern: &str, args: &[u32]) -> String {
        let mut pieces = pattern.split("{}");
        let mut out = String::from(pieces.next().unwrap_or(""));
        for (piece, arg) in pieces.zip(args) {
            out += &arg.to_string();
            out += piece;
        }
        out
    }

    /// Each pattern with its holes filled by every rotation of the boundary
    /// arguments, passed as `u32`, `usize` and (where it fits) `u16`,
    /// renders as the reference text, compares equal to it and to a label
    /// of that text, and compares equal to itself however it was built.
    #[test]
    fn every_lowering_pattern_renders_its_boundary_arguments_exactly() {
        for pattern in PATTERNS {
            let holes = pattern.matches("{}").count();
            assert!((1..=Label::MAX_ARGS).contains(&holes), "{pattern}");
            for rotation in 0..ARGS.len() {
                let args: Vec<u32> = (0..holes)
                    .map(|h| ARGS[(rotation + h) % ARGS.len()])
                    .collect();
                let want = reference(pattern, &args);
                let by_u32 = args.iter().fold(Label::new(pattern), |l, &a| l.with(a));
                let by_usize = args
                    .iter()
                    .fold(Label::new(pattern), |l, &a| l.with(a as usize));
                assert_eq!(by_u32.to_string(), want);
                assert_eq!(by_usize.to_string(), want);
                assert_eq!(format!("{by_u32:?}"), format!("{want:?}"));
                if let Ok(small) = args
                    .iter()
                    .map(|&a| u16::try_from(a))
                    .collect::<Result<Vec<u16>, _>>()
                {
                    let by_u16 = small.iter().fold(Label::new(pattern), |l, &a| l.with(a));
                    assert_eq!(by_u16.to_string(), want);
                    assert_eq!(by_u16, by_u32);
                }
                assert_eq!(by_u32, want.as_str());
                assert_eq!(by_u32, by_usize);
                assert_eq!(by_u32, Label::from(want.clone()));
                assert_eq!(Label::from(want.clone()), by_u32);
                assert_ne!(by_u32, format!("{want}0").as_str());
            }
        }
    }

    /// Labels built from different patterns, or from different arguments,
    /// are equal exactly when they render alike.
    #[test]
    fn labels_of_different_patterns_are_equal_when_they_render_alike() {
        let twelve = Label::new("a{}").with(12u32);
        assert_eq!(twelve, Label::new("a{}{}").with(1u32).with(2u32));
        assert_eq!(Label::new("a{}{}").with(1u32).with(2u32), twelve);
        assert_ne!(twelve, Label::new("a{}{}").with(2u32).with(1u32));
        assert_ne!(twelve, Label::new("a{}").with(13u32));
        assert_eq!(Label::new("ar.embed"), Label::from("ar.embed"));
        assert_ne!(Label::new("t{}").with(0u32), Label::from("t{}"));
    }

    #[test]
    #[should_panic(expected = "label argument fits in a u32")]
    fn a_usize_argument_above_u32_max_panics() {
        let _ = Label::new("L{}").with(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "only a pattern label takes arguments")]
    fn free_form_text_takes_no_argument() {
        let _ = Label::from(String::from("t{}")).with(1u32);
    }
}
