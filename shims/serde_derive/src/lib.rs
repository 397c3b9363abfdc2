//! Offline shim for `serde_derive`.
//!
//! The workspace cannot reach crates.io, so this crate re-implements the
//! `Serialize` / `Deserialize` derives against the shim `serde` crate's
//! positional data model (see `shims/serde`): fields are written in
//! declaration order, enum variants carry their declaration index as a
//! varint tag. The macro hand-parses the item's token stream (no `syn` /
//! `quote` available offline) and supports exactly the shapes the
//! workspace serializes:
//!
//! * non-generic structs — named fields, tuple structs, unit structs;
//! * non-generic enums — unit, tuple and struct variants.
//!
//! Generic items are rejected with a compile-time panic. Attributes
//! (including doc comments) on items, fields and variants are skipped;
//! `#[serde(...)]` customization attributes are accepted syntactically but
//! have no effect. Swap in the real serde + serde_derive for full fidelity
//! (see `shims/README.md`).

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write as _;

/// Derive `serde::Serialize` (shim data model: positional field order).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    item.serialize_impl()
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derive `serde::Deserialize` (shim data model: positional field order).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    item.deserialize_impl()
        .parse()
        .expect("generated Deserialize impl parses")
}

/// The fields of a struct or enum variant.
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// A parsed `struct` or `enum` item.
struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

/// Cursor over a flat token-tree list with the few lookahead helpers the
/// item grammar needs.
struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn is_punct(&self, ch: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ch)
    }

    fn is_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == word)
    }

    /// Skip any number of outer attributes (`#[...]`), including the
    /// `#[doc = "..."]` forms doc comments lower to.
    fn skip_attributes(&mut self) {
        while self.is_punct('#') {
            self.pos += 1; // '#'
            match self.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    self.pos += 1;
                }
                other => panic!("serde shim derive: expected [...] after '#', got {other:?}"),
            }
        }
    }

    /// Skip a visibility qualifier (`pub`, `pub(crate)`, `pub(in ...)`).
    fn skip_visibility(&mut self) {
        if self.is_ident("pub") {
            self.pos += 1;
            if let Some(TokenTree::Group(g)) = self.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    self.pos += 1;
                }
            }
        }
    }

    fn expect_ident(&mut self, context: &str) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde shim derive: expected identifier ({context}), got {other:?}"),
        }
    }

    /// Skip tokens until a top-level `,` (angle-bracket depth 0) or the end
    /// of the stream; consumes the comma.
    fn skip_past_comma(&mut self) {
        let mut angle_depth = 0i64;
        while let Some(t) = self.next() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => return,
                    _ => {}
                }
            }
        }
    }
}

impl Item {
    fn parse(input: TokenStream) -> Item {
        let mut cur = Cursor::new(input);
        cur.skip_attributes();
        cur.skip_visibility();

        let keyword = cur.expect_ident("struct/enum keyword");
        let name = cur.expect_ident("item name");
        if cur.is_punct('<') {
            panic!("serde shim derive: generic type `{name}` is not supported");
        }

        match keyword.as_str() {
            "struct" => {
                let fields = match cur.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Fields::Named(parse_named_fields(g.stream()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        Fields::Tuple(count_tuple_fields(g.stream()))
                    }
                    Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                    other => panic!("serde shim derive: unexpected struct body {other:?}"),
                };
                Item {
                    name,
                    shape: Shape::Struct(fields),
                }
            }
            "enum" => {
                let body = match cur.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                    other => panic!("serde shim derive: unexpected enum body {other:?}"),
                };
                Item {
                    name,
                    shape: Shape::Enum(parse_variants(body)),
                }
            }
            other => panic!("serde shim derive: cannot derive for `{other}` items"),
        }
    }

    fn serialize_impl(&self) -> String {
        let name = &self.name;
        let mut body = String::new();
        match &self.shape {
            Shape::Struct(fields) => {
                write_fields_serialize(&mut body, fields);
            }
            Shape::Enum(variants) => {
                body.push_str("match self {\n");
                for (tag, (variant, fields)) in variants.iter().enumerate() {
                    let (pattern, bindings) = variant_pattern(name, variant, fields);
                    let _ = writeln!(
                        body,
                        "{pattern} => {{ ::serde::Serializer::write_variant_tag(serializer, {tag}u32)?;"
                    );
                    for binding in &bindings {
                        let _ = writeln!(
                            body,
                            "::serde::Serialize::serialize({binding}, serializer)?;"
                        );
                    }
                    body.push_str("}\n");
                }
                body.push_str("}\n");
            }
        }
        format!(
            "impl ::serde::Serialize for {name} {{\n\
             fn serialize<S: ::serde::Serializer>(&self, serializer: &mut S)\n\
             -> ::core::result::Result<(), S::Error> {{\n\
             let _ = &serializer;\n\
             {body}\n\
             ::core::result::Result::Ok(())\n\
             }}\n}}"
        )
    }

    fn deserialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.shape {
            Shape::Struct(fields) => format!(
                "::core::result::Result::Ok({})",
                fields_construct(name, fields)
            ),
            Shape::Enum(variants) => {
                let mut arms = String::new();
                for (tag, (variant, fields)) in variants.iter().enumerate() {
                    let construct = fields_construct(&format!("{name}::{variant}"), fields);
                    let _ = writeln!(arms, "{tag}u32 => ::core::result::Result::Ok({construct}),");
                }
                format!(
                    "match ::serde::Deserializer::read_variant_tag(deserializer)? {{\n\
                     {arms}\n\
                     _ => ::core::result::Result::Err(\
                     ::serde::Deserializer::invalid_value(deserializer, \"variant tag\")),\n}}"
                )
            }
        };
        format!(
            "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn deserialize<D: ::serde::Deserializer<'de>>(deserializer: &mut D)\n\
             -> ::core::result::Result<Self, D::Error> {{\n\
             let _ = &deserializer;\n\
             {body}\n\
             }}\n}}"
        )
    }
}

/// Serialize statements for a struct's own fields (`&self.x` receivers).
fn write_fields_serialize(out: &mut String, fields: &Fields) {
    match fields {
        Fields::Unit => {}
        Fields::Tuple(n) => {
            for idx in 0..*n {
                let _ = writeln!(
                    out,
                    "::serde::Serialize::serialize(&self.{idx}, serializer)?;"
                );
            }
        }
        Fields::Named(names) => {
            for field in names {
                let _ = writeln!(
                    out,
                    "::serde::Serialize::serialize(&self.{field}, serializer)?;"
                );
            }
        }
    }
}

/// A match pattern for one enum variant plus the binding names it creates.
fn variant_pattern(enum_name: &str, variant: &str, fields: &Fields) -> (String, Vec<String>) {
    match fields {
        Fields::Unit => (format!("{enum_name}::{variant}"), Vec::new()),
        Fields::Tuple(n) => {
            let bindings: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
            (
                format!("{enum_name}::{variant}({})", bindings.join(", ")),
                bindings,
            )
        }
        Fields::Named(names) => (
            format!("{enum_name}::{variant} {{ {} }}", names.join(", ")),
            names.clone(),
        ),
    }
}

/// A constructor expression reading every field from `deserializer`.
fn fields_construct(path: &str, fields: &Fields) -> String {
    const READ: &str = "::serde::Deserialize::deserialize(deserializer)?";
    match fields {
        Fields::Unit => path.to_string(),
        Fields::Tuple(n) => {
            let reads: Vec<&str> = (0..*n).map(|_| READ).collect();
            format!("{path}({})", reads.join(", "))
        }
        Fields::Named(names) => {
            let reads: Vec<String> = names.iter().map(|f| format!("{f}: {READ}")).collect();
            format!("{path} {{ {} }}", reads.join(", "))
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    loop {
        cur.skip_attributes();
        if cur.peek().is_none() {
            break;
        }
        cur.skip_visibility();
        fields.push(cur.expect_ident("field name"));
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected ':' after field, got {other:?}"),
        }
        cur.skip_past_comma();
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut cur = Cursor::new(stream);
    let mut count = 0usize;
    loop {
        cur.skip_attributes();
        if cur.peek().is_none() {
            break;
        }
        count += 1;
        cur.skip_past_comma();
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    loop {
        cur.skip_attributes();
        if cur.peek().is_none() {
            break;
        }
        let name = cur.expect_ident("variant name");
        let fields = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = Fields::Named(parse_named_fields(g.stream()));
                cur.pos += 1;
                f
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let f = Fields::Tuple(count_tuple_fields(g.stream()));
                cur.pos += 1;
                f
            }
            _ => Fields::Unit,
        };
        // Skip an optional explicit discriminant and the separating comma.
        cur.skip_past_comma();
        variants.push((name, fields));
    }
    variants
}
