//! Message-content filters, compiled once per subscription.
//!
//! Both stacks filter notifications by an XPath over the message: a WSN
//! `Selector`, a WS-Eventing `Filter`. The table stores each filter in
//! compiled form next to its entry, so a notify evaluates filters and
//! never re-parses them. The paper's counter subscriptions all take the
//! `/CounterValueChanged[@counter='…']` shape, which
//! [`ogsa_xml::XPath::attr_equality`] recognises; those entries keep only
//! the three strings and test them without the evaluator.

use ogsa_xml::{Element, XPath, XPathContext};

/// A subscription's compiled message-content filter.
#[derive(Debug)]
pub enum ContentFilter {
    /// No filter: every message passes.
    All,
    /// A stored filter that does not compile: no message passes.
    Never,
    /// `/element[@attr='value']`: the message root's local name is
    /// `element` and its unqualified `attr` is `value`.
    AttrEq {
        element: Box<str>,
        attr: Box<str>,
        value: Box<str>,
    },
    /// Any other expression, evaluated against the message root.
    XPath(XPath),
}

impl ContentFilter {
    /// Compile an optional filter expression; one that does not compile
    /// becomes [`ContentFilter::Never`] (callers that must reject it
    /// compile the [`XPath`] themselves and use [`ContentFilter::from_xpath`]).
    pub fn compile(expr: Option<&str>) -> Self {
        match expr {
            None => ContentFilter::All,
            Some(src) => XPath::compile(src).map_or(ContentFilter::Never, Self::from_xpath),
        }
    }

    /// Wrap an already compiled expression, taking the attribute-equality
    /// fast path when its shape allows.
    pub fn from_xpath(xp: XPath) -> Self {
        match xp.attr_equality() {
            Some((element, attr, value)) => ContentFilter::AttrEq {
                element: element.into(),
                attr: attr.into(),
                value: value.into(),
            },
            None => ContentFilter::XPath(xp),
        }
    }

    /// Does `message` pass? An evaluation error counts as no.
    pub fn accepts(&self, message: &Element) -> bool {
        match self {
            ContentFilter::All => true,
            ContentFilter::Never => false,
            ContentFilter::AttrEq {
                element,
                attr,
                value,
            } => *message.name.local == **element && message.attr_local(attr) == Some(value),
            ContentFilter::XPath(xp) => xp.matches(message, &XPathContext::new()).unwrap_or(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(counter: &str) -> Element {
        Element::new("CounterValueChanged").with_attr("counter", counter)
    }

    #[test]
    fn counter_selectors_take_the_fast_path() {
        let f = ContentFilter::compile(Some("/CounterValueChanged[@counter='c1']"));
        assert!(matches!(f, ContentFilter::AttrEq { .. }), "{f:?}");
        assert!(f.accepts(&msg("c1")));
        assert!(!f.accepts(&msg("c2")));
    }

    #[test]
    fn other_shapes_keep_the_evaluator() {
        let f = ContentFilter::compile(Some("/CounterValueChanged[@counter!='c1']"));
        assert!(matches!(f, ContentFilter::XPath(_)), "{f:?}");
        assert!(!f.accepts(&msg("c1")));
        assert!(f.accepts(&msg("c2")));
    }

    #[test]
    fn absent_and_invalid_filters() {
        assert!(ContentFilter::compile(None).accepts(&msg("c1")));
        let bad = ContentFilter::compile(Some("///bad"));
        assert!(matches!(bad, ContentFilter::Never), "{bad:?}");
        assert!(!bad.accepts(&msg("c1")));
    }
}
