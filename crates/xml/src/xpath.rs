//! An XPath 1.0 subset sufficient for the three places the paper uses it:
//! WSRF `QueryResourceProperties` (XPath dialect), WS-Notification /
//! WS-Eventing message-content filters, and Xindice-style queries over
//! document collections.
//!
//! Supported grammar:
//!
//! ```text
//! expr     := or
//! or       := and ('or' and)*
//! and      := cmp ('and' cmp)*
//! cmp      := operand (('=' | '!=' | '<' | '<=' | '>' | '>=') operand)?
//! operand  := literal | number | func | path
//! func     := 'not' '(' expr ')' | 'count' '(' path ')'
//!           | 'contains' '(' operand ',' operand ')'
//!           | 'starts-with' '(' operand ',' operand ')'
//! path     := ('/' | '//')? step (('/' | '//') step)*
//! step     := '.' | 'text()' | '@' nametest | nametest pred*
//! nametest := '*' | name | prefix ':' name
//! pred     := '[' integer ']' | '[' expr ']'
//! ```
//!
//! Namespace prefixes in expressions resolve through an [`XPathContext`];
//! unprefixed name tests match on local name regardless of namespace, which
//! is how the paper's Xindice queries behaved in practice.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::error::{XmlError, XmlResult};
use crate::node::{Element, Node};

/// Prefix → namespace-URI bindings for evaluating prefixed name tests.
#[derive(Debug, Clone, Default)]
pub struct XPathContext {
    bindings: HashMap<String, String>,
}

impl XPathContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `prefix` to `uri` (builder style).
    pub fn with_ns(mut self, prefix: &str, uri: &str) -> Self {
        self.bindings.insert(prefix.to_owned(), uri.to_owned());
        self
    }

    fn resolve(&self, prefix: &str) -> XmlResult<&str> {
        self.bindings
            .get(prefix)
            .map(String::as_str)
            .ok_or_else(|| XmlError::XPath(format!("unbound prefix `{prefix}` in expression")))
    }
}

/// The result of evaluating an expression.
///
/// String results borrow from the document (attribute values, text nodes)
/// or from the compiled expression (literals) wherever possible; evaluation
/// only allocates when a string has to be synthesised (number formatting,
/// multi-text-node concatenation).
#[derive(Debug, Clone, PartialEq)]
pub enum XPathValue<'a> {
    /// A set of element nodes, in document order.
    Nodes(Vec<&'a Element>),
    /// A set of strings (attribute values or `text()` selections).
    Strings(Vec<Cow<'a, str>>),
    Str(Cow<'a, str>),
    Num(f64),
    Bool(bool),
}

impl<'a> XPathValue<'a> {
    /// XPath boolean coercion: non-empty node-set / non-empty string /
    /// non-zero number.
    pub fn truthy(&self) -> bool {
        match self {
            XPathValue::Nodes(n) => !n.is_empty(),
            XPathValue::Strings(s) => !s.is_empty(),
            XPathValue::Str(s) => !s.is_empty(),
            XPathValue::Num(n) => *n != 0.0 && !n.is_nan(),
            XPathValue::Bool(b) => *b,
        }
    }

    /// String-value: first node's text for node-sets.
    pub fn string_value(&self) -> String {
        match self {
            XPathValue::Nodes(n) => n.first().map(|e| e.text()).unwrap_or_default(),
            XPathValue::Strings(s) => s
                .first()
                .map(|s| s.clone().into_owned())
                .unwrap_or_default(),
            XPathValue::Str(s) => s.clone().into_owned(),
            XPathValue::Num(n) => format_num(*n),
            XPathValue::Bool(b) => b.to_string(),
        }
    }

    fn candidate_strings(&self) -> Vec<Cow<'_, str>> {
        match self {
            XPathValue::Nodes(n) => n.iter().map(|e| e.text_cow()).collect(),
            XPathValue::Strings(s) => s.iter().map(|s| Cow::Borrowed(s.as_ref())).collect(),
            XPathValue::Str(s) => vec![Cow::Borrowed(s.as_ref())],
            XPathValue::Num(n) => vec![Cow::Owned(format_num(*n))],
            XPathValue::Bool(b) => vec![Cow::Owned(b.to_string())],
        }
    }
}

fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// A compiled XPath expression.
#[derive(Debug, Clone)]
pub struct XPath {
    src: String,
    expr: Expr,
}

impl fmt::Display for XPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.src)
    }
}

impl XPath {
    /// Compile an expression.
    pub fn compile(src: &str) -> XmlResult<Self> {
        let tokens = lex(src)?;
        let mut p = ExprParser { tokens, pos: 0 };
        let expr = p.parse_expr()?;
        if p.pos != p.tokens.len() {
            return Err(XmlError::XPath(format!(
                "trailing tokens in expression `{src}`"
            )));
        }
        Ok(XPath {
            src: src.to_owned(),
            expr,
        })
    }

    /// Evaluate against `root` (treated as the document's root element).
    /// The result borrows from both the document and the compiled
    /// expression (string literals are never copied).
    pub fn evaluate<'a>(
        &'a self,
        root: &'a Element,
        ctx: &XPathContext,
    ) -> XmlResult<XPathValue<'a>> {
        eval_expr(&self.expr, root, root, ctx)
    }

    /// Evaluate and coerce to boolean — the filter-predicate entry point.
    pub fn matches(&self, root: &Element, ctx: &XPathContext) -> XmlResult<bool> {
        Ok(self.evaluate(root, ctx)?.truthy())
    }

    /// The `/Name[@attr='literal']` shape (either operand order) as
    /// `(element local, attribute local, literal)`, or `None` for any
    /// other expression. Unprefixed names only, no `//`, exactly one
    /// predicate. For a recognised expression, `matches(root)` is exactly
    /// `root`'s local name is `Name` and `root.attr_local(attr) ==
    /// Some(literal)` — the notification content filters' fast path.
    pub fn attr_equality(&self) -> Option<(&str, &str, &str)> {
        let Expr::Path(path) = &self.expr else {
            return None;
        };
        let [step] = path.steps.as_slice() else {
            return None;
        };
        let StepTest::Name { ns: None, local } = &step.test else {
            return None;
        };
        let [Expr::Cmp(a, CmpOp::Eq, b)] = step.predicates.as_slice() else {
            return None;
        };
        if !path.absolute || step.descend {
            return None;
        }
        let (attr_path, literal) = match (a.as_ref(), b.as_ref()) {
            (Expr::Path(p), Expr::Literal(l)) | (Expr::Literal(l), Expr::Path(p)) => (p, l),
            _ => return None,
        };
        let [Step {
            descend: false,
            test: StepTest::Attr { local: attr },
            predicates,
        }] = attr_path.steps.as_slice()
        else {
            return None;
        };
        if attr_path.absolute || !predicates.is_empty() || attr.contains(':') {
            return None;
        }
        Some((local, attr, literal))
    }

    /// Evaluate, requiring a node-set result — the query entry point.
    pub fn select<'a>(
        &'a self,
        root: &'a Element,
        ctx: &XPathContext,
    ) -> XmlResult<Vec<&'a Element>> {
        match self.evaluate(root, ctx)? {
            XPathValue::Nodes(n) => Ok(n),
            other => Err(XmlError::XPath(format!(
                "expression `{}` did not select elements (got {other:?})",
                self.src
            ))),
        }
    }
}

// ---------------------------------------------------------------- lexer ----

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Slash,
    DoubleSlash,
    At,
    Star,
    Dot,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Name(String),
    Literal(String),
    Number(f64),
}

fn lex(src: &str) -> XmlResult<Vec<Tok>> {
    let mut out = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '/' => {
                if b.get(i + 1) == Some(&b'/') {
                    out.push(Tok::DoubleSlash);
                    i += 2;
                } else {
                    out.push(Tok::Slash);
                    i += 1;
                }
            }
            '@' => {
                out.push(Tok::At);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '[' => {
                out.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Tok::RBracket);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Neq);
                    i += 2;
                } else {
                    return Err(XmlError::XPath("stray `!`".into()));
                }
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Le);
                    i += 2;
                } else {
                    out.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] as char != quote {
                    j += 1;
                }
                if j == b.len() {
                    return Err(XmlError::XPath("unterminated string literal".into()));
                }
                out.push(Tok::Literal(src[start..j].to_owned()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                let n: f64 = src[start..i]
                    .parse()
                    .map_err(|_| XmlError::XPath(format!("bad number `{}`", &src[start..i])))?;
                out.push(Tok::Number(n));
            }
            // Negative number literal (`v > -5`). A bare `-` never starts a
            // name (names begin alphabetic), so this is unambiguous here.
            '-' if b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) => {
                let start = i;
                i += 1;
                while i < b.len() && ((b[i] as char).is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                let n: f64 = src[start..i]
                    .parse()
                    .map_err(|_| XmlError::XPath(format!("bad number `{}`", &src[start..i])))?;
                out.push(Tok::Number(n));
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() {
                    let c = b[i] as char;
                    if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | ':') {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Tok::Name(src[start..i].to_owned()));
            }
            _ => return Err(XmlError::XPath(format!("unexpected character `{c}`"))),
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------- AST ----

#[derive(Debug, Clone)]
enum Expr {
    Or(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    Path(Path),
    Literal(String),
    Number(f64),
    Not(Box<Expr>),
    Count(Path),
    Contains(Box<Expr>, Box<Expr>),
    StartsWith(Box<Expr>, Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone)]
struct Path {
    absolute: bool,
    steps: Vec<Step>,
}

#[derive(Debug, Clone)]
struct Step {
    /// Descend (descendant-or-self) before applying the test?
    descend: bool,
    test: StepTest,
    predicates: Vec<Expr>,
}

#[derive(Debug, Clone)]
enum StepTest {
    /// Element name test; `ns == None` means match any namespace (local
    /// name only); empty local with `Star` handled by `AnyName`.
    Name {
        ns: Option<String>,
        local: String,
    },
    AnyName,
    SelfNode,
    Text,
    Attr {
        local: String,
    },
    AnyAttr,
}

struct ExprParser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> XmlResult<()> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(XmlError::XPath(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn parse_expr(&mut self) -> XmlResult<Expr> {
        let mut left = self.parse_and()?;
        while self.peek_keyword("or") {
            self.pos += 1;
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> XmlResult<Expr> {
        let mut left = self.parse_cmp()?;
        while self.peek_keyword("and") {
            self.pos += 1;
            let right = self.parse_cmp()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Name(n)) if n == kw)
    }

    fn parse_cmp(&mut self) -> XmlResult<Expr> {
        let left = self.parse_operand()?;
        let op = match self.peek() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Neq) => CmpOp::Neq,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.parse_operand()?;
        Ok(Expr::Cmp(Box::new(left), op, Box::new(right)))
    }

    fn parse_operand(&mut self) -> XmlResult<Expr> {
        match self.peek() {
            Some(Tok::Literal(_)) => {
                if let Some(Tok::Literal(s)) = self.bump() {
                    Ok(Expr::Literal(s))
                } else {
                    unreachable!()
                }
            }
            Some(Tok::Number(_)) => {
                if let Some(Tok::Number(n)) = self.bump() {
                    Ok(Expr::Number(n))
                } else {
                    unreachable!()
                }
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Name(n)) if self.tokens.get(self.pos + 1) == Some(&Tok::LParen) => {
                let name = n.clone();
                match name.as_str() {
                    "not" => {
                        self.pos += 2;
                        let inner = self.parse_expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Not(Box::new(inner)))
                    }
                    "count" => {
                        self.pos += 2;
                        let path = self.parse_path()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Count(path))
                    }
                    "contains" | "starts-with" => {
                        self.pos += 2;
                        let a = self.parse_operand()?;
                        self.expect(Tok::Comma)?;
                        let b = self.parse_operand()?;
                        self.expect(Tok::RParen)?;
                        if name == "contains" {
                            Ok(Expr::Contains(Box::new(a), Box::new(b)))
                        } else {
                            Ok(Expr::StartsWith(Box::new(a), Box::new(b)))
                        }
                    }
                    "text" => {
                        // `text()` as a bare path step.
                        let path = self.parse_path()?;
                        Ok(Expr::Path(path))
                    }
                    other => Err(XmlError::XPath(format!("unknown function `{other}`"))),
                }
            }
            _ => Ok(Expr::Path(self.parse_path()?)),
        }
    }

    fn parse_path(&mut self) -> XmlResult<Path> {
        let mut absolute = false;
        let mut leading_descent = false;
        if self.eat(&Tok::Slash) {
            absolute = true;
        } else if self.eat(&Tok::DoubleSlash) {
            absolute = true;
            leading_descent = true;
        }
        let mut steps = Vec::new();
        loop {
            let descend = if steps.is_empty() {
                leading_descent
            } else {
                false
            };
            let step = self.parse_step(descend)?;
            steps.push(step);
            if self.eat(&Tok::Slash) {
                continue;
            }
            if self.eat(&Tok::DoubleSlash) {
                // Mark descent on the *next* step.
                let next = self.parse_step(true)?;
                steps.push(next);
                if self.eat(&Tok::Slash) {
                    continue;
                }
                if self.peek() == Some(&Tok::DoubleSlash) {
                    continue;
                }
                break;
            }
            break;
        }
        if steps.is_empty() {
            return Err(XmlError::XPath("empty path".into()));
        }
        Ok(Path { absolute, steps })
    }

    fn parse_step(&mut self, descend: bool) -> XmlResult<Step> {
        let test = match self.bump() {
            Some(Tok::Dot) => StepTest::SelfNode,
            Some(Tok::Star) => StepTest::AnyName,
            Some(Tok::At) => match self.bump() {
                Some(Tok::Name(n)) => StepTest::Attr { local: n },
                Some(Tok::Star) => StepTest::AnyAttr,
                other => {
                    return Err(XmlError::XPath(format!(
                        "expected attribute name after `@`, found {other:?}"
                    )))
                }
            },
            Some(Tok::Name(n)) => {
                if n == "text" && self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    self.expect(Tok::RParen)?;
                    StepTest::Text
                } else if let Some((prefix, local)) = n.split_once(':') {
                    StepTest::Name {
                        ns: Some(prefix.to_owned()),
                        local: local.to_owned(),
                    }
                } else {
                    StepTest::Name { ns: None, local: n }
                }
            }
            other => {
                return Err(XmlError::XPath(format!(
                    "expected a path step, found {other:?}"
                )))
            }
        };
        let mut predicates = Vec::new();
        while self.eat(&Tok::LBracket) {
            let e = self.parse_expr()?;
            self.expect(Tok::RBracket)?;
            predicates.push(e);
        }
        Ok(Step {
            descend,
            test,
            predicates,
        })
    }
}

// ----------------------------------------------------------- evaluation ----

/// First candidate string without forcing an owned copy.
fn str_cow<'v>(v: &'v XPathValue<'_>) -> Cow<'v, str> {
    match v {
        XPathValue::Nodes(n) => n.first().map(|e| e.text_cow()).unwrap_or_default(),
        XPathValue::Strings(s) => s
            .first()
            .map(|s| Cow::Borrowed(s.as_ref()))
            .unwrap_or_default(),
        XPathValue::Str(s) => Cow::Borrowed(s.as_ref()),
        XPathValue::Num(n) => Cow::Owned(format_num(*n)),
        XPathValue::Bool(b) => Cow::Owned(b.to_string()),
    }
}

fn eval_expr<'a>(
    expr: &'a Expr,
    context: &'a Element,
    root: &'a Element,
    ctx: &XPathContext,
) -> XmlResult<XPathValue<'a>> {
    match expr {
        Expr::Or(a, b) => Ok(XPathValue::Bool(
            eval_expr(a, context, root, ctx)?.truthy()
                || eval_expr(b, context, root, ctx)?.truthy(),
        )),
        Expr::And(a, b) => Ok(XPathValue::Bool(
            eval_expr(a, context, root, ctx)?.truthy()
                && eval_expr(b, context, root, ctx)?.truthy(),
        )),
        Expr::Not(e) => Ok(XPathValue::Bool(
            !eval_expr(e, context, root, ctx)?.truthy(),
        )),
        Expr::Literal(s) => Ok(XPathValue::Str(Cow::Borrowed(s))),
        Expr::Number(n) => Ok(XPathValue::Num(*n)),
        Expr::Count(p) => {
            let v = eval_path(p, context, root, ctx)?;
            let n = match v {
                XPathValue::Nodes(n) => n.len(),
                XPathValue::Strings(s) => s.len(),
                _ => 0,
            };
            Ok(XPathValue::Num(n as f64))
        }
        Expr::Contains(a, b) => {
            let a = eval_expr(a, context, root, ctx)?;
            let b = eval_expr(b, context, root, ctx)?;
            Ok(XPathValue::Bool(str_cow(&a).contains(str_cow(&b).as_ref())))
        }
        Expr::StartsWith(a, b) => {
            let a = eval_expr(a, context, root, ctx)?;
            let b = eval_expr(b, context, root, ctx)?;
            Ok(XPathValue::Bool(
                str_cow(&a).starts_with(str_cow(&b).as_ref()),
            ))
        }
        Expr::Cmp(a, op, b) => {
            let av = eval_expr(a, context, root, ctx)?;
            let bv = eval_expr(b, context, root, ctx)?;
            Ok(XPathValue::Bool(compare(&av, *op, &bv)))
        }
        Expr::Path(p) => eval_path(p, context, root, ctx),
    }
}

/// XPath existential comparison: true if any pair of candidate values
/// satisfies the operator. Relational operators compare numerically.
fn compare(a: &XPathValue, op: CmpOp, b: &XPathValue) -> bool {
    let avs = a.candidate_strings();
    let bvs = b.candidate_strings();
    for av in &avs {
        for bv in &bvs {
            let hit = match op {
                CmpOp::Eq => av == bv,
                CmpOp::Neq => av != bv,
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    match (av.trim().parse::<f64>(), bv.trim().parse::<f64>()) {
                        (Ok(x), Ok(y)) => match op {
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                            _ => unreachable!(),
                        },
                        _ => false,
                    }
                }
            };
            if hit {
                return true;
            }
        }
    }
    false
}

fn eval_path<'a>(
    path: &'a Path,
    context: &'a Element,
    root: &'a Element,
    ctx: &XPathContext,
) -> XmlResult<XPathValue<'a>> {
    let mut current: Vec<&'a Element> = if path.absolute {
        // The first step of an absolute path is tested against the root
        // element itself (the element *is* the document root's only child).
        vec![root]
    } else {
        vec![context]
    };
    let mut strings: Option<Vec<Cow<'a, str>>> = None;

    for (idx, step) in path.steps.iter().enumerate() {
        if strings.is_some() {
            return Err(XmlError::XPath(
                "attribute/text() step must be the last step".into(),
            ));
        }
        // Candidate nodes for this step.
        let candidates: Vec<&'a Element> = if path.absolute && idx == 0 {
            if step.descend {
                let mut all = Vec::new();
                root.descendants(&mut all);
                all
            } else {
                current.clone()
            }
        } else if step.descend {
            let mut all = Vec::new();
            for c in &current {
                for child in c.child_elements() {
                    child.descendants(&mut all);
                }
            }
            all
        } else {
            match &step.test {
                StepTest::SelfNode => current.clone(),
                _ => current.iter().flat_map(|c| c.child_elements()).collect(),
            }
        };

        match &step.test {
            StepTest::SelfNode => {
                current = apply_predicates(candidates, &step.predicates, root, ctx)?;
            }
            StepTest::AnyName => {
                current = apply_predicates(candidates, &step.predicates, root, ctx)?;
            }
            StepTest::Name { ns, local } => {
                let want_ns = match ns {
                    Some(prefix) => Some(ctx.resolve(prefix)?),
                    None => None,
                };
                let filtered: Vec<&'a Element> = candidates
                    .into_iter()
                    .filter(|e| {
                        &*e.name.local == local.as_str()
                            && match want_ns {
                                Some(uri) => e.name.ns_str() == uri,
                                None => true,
                            }
                    })
                    .collect();
                current = apply_predicates(filtered, &step.predicates, root, ctx)?;
            }
            StepTest::Text => {
                let mut out = Vec::new();
                for e in &current {
                    for n in &e.children {
                        if let Node::Text(t) = n {
                            out.push(Cow::Borrowed(t.as_str()));
                        }
                    }
                }
                strings = Some(out);
            }
            StepTest::Attr { local } => {
                let mut out = Vec::new();
                for e in candidates_parent(&current, step, path, idx, root) {
                    if let Some(v) = e.attr_local(local) {
                        out.push(Cow::Borrowed(v));
                    }
                }
                strings = Some(out);
            }
            StepTest::AnyAttr => {
                let mut out = Vec::new();
                for e in candidates_parent(&current, step, path, idx, root) {
                    for a in &e.attrs {
                        out.push(Cow::Borrowed(a.value.as_str()));
                    }
                }
                strings = Some(out);
            }
        }
    }

    Ok(match strings {
        Some(s) => XPathValue::Strings(s),
        None => XPathValue::Nodes(current),
    })
}

/// Attribute steps apply to the *current* node set (the elements carrying
/// the attributes), optionally widened by `//@attr` descent.
fn candidates_parent<'a>(
    current: &[&'a Element],
    step: &Step,
    _path: &Path,
    _idx: usize,
    _root: &'a Element,
) -> Vec<&'a Element> {
    if step.descend {
        let mut all = Vec::new();
        for c in current {
            c.descendants(&mut all);
        }
        all
    } else {
        current.to_vec()
    }
}

fn apply_predicates<'a>(
    nodes: Vec<&'a Element>,
    predicates: &'a [Expr],
    root: &'a Element,
    ctx: &XPathContext,
) -> XmlResult<Vec<&'a Element>> {
    let mut current = nodes;
    for pred in predicates {
        if let Expr::Number(n) = pred {
            // Positional predicate, 1-based.
            let i = *n as usize;
            current = if i >= 1 && i <= current.len() {
                vec![current[i - 1]]
            } else {
                vec![]
            };
            continue;
        }
        let mut keep = Vec::with_capacity(current.len());
        for node in current {
            if eval_expr(pred, node, root, ctx)?.truthy() {
                keep.push(node);
            }
        }
        current = keep;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn doc() -> Element {
        parse(
            r#"<jobs>
                 <job id="1" state="running"><owner>alice</owner><cpu>4</cpu></job>
                 <job id="2" state="done"><owner>bob</owner><cpu>8</cpu><exit>0</exit></job>
                 <job id="3" state="done"><owner>alice</owner><cpu>16</cpu><exit>1</exit></job>
               </jobs>"#,
        )
        .unwrap()
    }

    fn sel(src: &str) -> Vec<String> {
        let d = doc();
        let xp = XPath::compile(src).unwrap();
        xp.select(&d, &XPathContext::new())
            .unwrap()
            .iter()
            .map(|e| e.attr_local("id").unwrap_or("?").to_owned())
            .collect()
    }

    fn truthy(src: &str) -> bool {
        let d = doc();
        XPath::compile(src)
            .unwrap()
            .matches(&d, &XPathContext::new())
            .unwrap()
    }

    #[test]
    fn absolute_child_paths() {
        assert_eq!(sel("/jobs/job"), ["1", "2", "3"]);
        assert!(sel("/nope/job").is_empty());
    }

    #[test]
    fn descendant_paths() {
        assert_eq!(sel("//job"), ["1", "2", "3"]);
        let d = doc();
        let owners = XPath::compile("//owner").unwrap();
        assert_eq!(owners.select(&d, &XPathContext::new()).unwrap().len(), 3);
    }

    #[test]
    fn attribute_predicates() {
        assert_eq!(sel("/jobs/job[@state='done']"), ["2", "3"]);
        assert_eq!(sel("/jobs/job[@id='1']"), ["1"]);
        assert_eq!(sel("/jobs/job[@state]"), ["1", "2", "3"]);
        assert!(sel("/jobs/job[@missing]").is_empty());
    }

    #[test]
    fn child_value_predicates() {
        assert_eq!(sel("/jobs/job[owner='alice']"), ["1", "3"]);
        assert_eq!(sel("/jobs/job[exit='0']"), ["2"]);
        assert_eq!(sel("/jobs/job[exit]"), ["2", "3"]);
    }

    #[test]
    fn numeric_comparisons() {
        assert_eq!(sel("/jobs/job[cpu > 4]"), ["2", "3"]);
        assert_eq!(sel("/jobs/job[cpu >= 4]"), ["1", "2", "3"]);
        assert_eq!(sel("/jobs/job[cpu < 8]"), ["1"]);
    }

    #[test]
    fn positional_predicates() {
        assert_eq!(sel("/jobs/job[2]"), ["2"]);
        assert!(sel("/jobs/job[9]").is_empty());
    }

    #[test]
    fn boolean_connectives() {
        assert_eq!(sel("/jobs/job[@state='done' and owner='alice']"), ["3"]);
        assert_eq!(sel("/jobs/job[@id='1' or @id='2']"), ["1", "2"]);
        assert_eq!(sel("/jobs/job[not(exit)]"), ["1"]);
    }

    #[test]
    fn attribute_selection_returns_strings() {
        let d = doc();
        let xp = XPath::compile("/jobs/job/@id").unwrap();
        match xp.evaluate(&d, &XPathContext::new()).unwrap() {
            XPathValue::Strings(s) => assert_eq!(s, ["1", "2", "3"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_selection() {
        let d = doc();
        let xp = XPath::compile("/jobs/job/owner/text()").unwrap();
        match xp.evaluate(&d, &XPathContext::new()).unwrap() {
            XPathValue::Strings(s) => assert_eq!(s, ["alice", "bob", "alice"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn top_level_boolean_expressions() {
        assert!(truthy("count(/jobs/job) = 3"));
        assert!(truthy("count(//exit) = 2"));
        assert!(!truthy("count(/jobs/job) > 3"));
        assert!(truthy("contains(/jobs/job/owner, 'ali')"));
        assert!(truthy("starts-with(/jobs/job/owner, 'al')"));
        assert!(!truthy("starts-with(/jobs/job/owner, 'zz')"));
    }

    #[test]
    fn wildcard_step() {
        assert_eq!(sel("/jobs/*[@id='2']"), ["2"]);
    }

    #[test]
    fn prefixed_name_tests_need_bindings() {
        let d = parse(&format!(
            "<c:counter xmlns:c=\"{}\"><c:value>5</c:value></c:counter>",
            crate::name::ns::COUNTER
        ))
        .unwrap();
        let ctx = XPathContext::new().with_ns("c", crate::name::ns::COUNTER);
        let xp = XPath::compile("/c:counter/c:value").unwrap();
        assert_eq!(xp.select(&d, &ctx).unwrap().len(), 1);
        // Unbound prefix errors out.
        assert!(xp.select(&d, &XPathContext::new()).is_err());
        // Unprefixed tests match local names across namespaces.
        let loose = XPath::compile("/counter/value").unwrap();
        assert_eq!(loose.select(&d, &XPathContext::new()).unwrap().len(), 1);
    }

    #[test]
    fn filter_style_expressions() {
        // The shape WS-Eventing filters take in the counter service.
        assert!(truthy("//job[@state='done']"));
        assert!(!truthy("//job[@state='failed']"));
        assert!(truthy("/jobs/job/cpu > 10"));
    }

    #[test]
    fn negative_number_literals() {
        assert_eq!(sel("/jobs/job[cpu > -1]"), ["1", "2", "3"]);
        let d = parse("<a><t>-7</t><t>3</t></a>").unwrap();
        let xp = XPath::compile("/a/t[. > -10]").unwrap();
        // `.` self steps with numeric predicates over negative values.
        assert_eq!(xp.select(&d, &XPathContext::new()).unwrap().len(), 2);
        let xp = XPath::compile("/a[t = -7]").unwrap();
        assert!(xp.matches(&d, &XPathContext::new()).unwrap());
    }

    #[test]
    fn compile_errors() {
        assert!(XPath::compile("").is_err());
        assert!(XPath::compile("/jobs/job[").is_err());
        assert!(XPath::compile("unknownfn(/a)").is_err());
        assert!(XPath::compile("/a/'lit'").is_err());
    }

    #[test]
    fn trailing_attr_step_enforced() {
        let d = doc();
        let xp = XPath::compile("/jobs/@id/job");
        // Grammar permits it; evaluation rejects it.
        if let Ok(xp) = xp {
            assert!(xp.evaluate(&d, &XPathContext::new()).is_err());
        }
    }

    #[test]
    fn attr_equality_recognises_both_operand_orders() {
        for src in [
            "/N[@a='v']",
            "/N['v'=@a]",
            "/N[ @a = \"v\" ]",
            "/N[(@a='v')]",
        ] {
            let xp = XPath::compile(src).unwrap();
            assert_eq!(xp.attr_equality(), Some(("N", "a", "v")), "{src}");
        }
    }

    #[test]
    fn attr_equality_rejects_other_shapes() {
        for src in [
            "/p:N[@a='v']",
            "//N[@a='v']",
            "/N[@a='v'][@b='w']",
            "/N[@a!='v']",
            "/N[a='v']",
            "/N[@a=5]",
            "/N[@p:a='v']",
            "/N[@*='v']",
            "/N/M[@a='v']",
            "N[@a='v']",
            "/N[@a='v' and @b='w']",
            "/N",
            "/*[@a='v']",
            "/N[/@a='v']",
            "/N[@a='v' or @a='w']",
        ] {
            let xp = XPath::compile(src).unwrap();
            assert_eq!(xp.attr_equality(), None, "{src}");
        }
    }

    #[test]
    fn attr_equality_agrees_with_the_evaluator() {
        let corpus = [
            r#"<N a="v"/>"#,
            r#"<N a="w"/>"#,
            r#"<N b="v"/>"#,
            r#"<M a="v"/>"#,
            r#"<x:N xmlns:x="urn:x" a="v"/>"#,
            r#"<N xmlns:x="urn:x" x:a="v"/>"#,
            r#"<N xmlns:x="urn:x" x:a="w" a="v"/>"#,
            r#"<N xmlns:x="urn:x" x:a="v" a="w"/>"#,
            r#"<N a=""/>"#,
            r#"<N a="v "/>"#,
            r#"<N><a>v</a></N>"#,
            r#"<N a="v"><N a="w"/></N>"#,
        ];
        let exprs = [
            "/N[@a='v']",
            "/N['v'=@a]",
            "/N[@a='w']",
            "/N[@a='']",
            "/M[@a='v']",
            "/N[@b='v']",
        ];
        for src in exprs {
            let xp = XPath::compile(src).unwrap();
            let (elem, attr, lit) = xp.attr_equality().expect(src);
            for doc in corpus {
                let root = parse(doc).unwrap();
                let fast = &*root.name.local == elem && root.attr_local(attr) == Some(lit);
                let slow = xp.matches(&root, &XPathContext::new()).unwrap();
                assert_eq!(fast, slow, "{src} over {doc}");
            }
        }
    }

    #[test]
    fn descendant_attribute_selection() {
        let d = doc();
        let xp = XPath::compile("//@state").unwrap();
        match xp.evaluate(&d, &XPathContext::new()).unwrap() {
            XPathValue::Strings(s) => assert_eq!(s.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }
}
