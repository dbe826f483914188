//! Parser robustness: no input may panic the front end, and every parse
//! failure must carry a source position.

use graql_parser::lexer::lex;
use graql_parser::token::TokenKind;
use graql_parser::{parse_script, parse_statement};
use graql_types::GraqlError;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable input never panics — it parses or errors.
    #[test]
    fn arbitrary_text_never_panics(s in "[ -~\\n\\t]{0,200}") {
        let _ = parse_script(&s);
    }

    /// Arbitrary bytes assembled from GraQL-ish tokens never panic either
    /// (denser coverage of the parser's branch space).
    #[test]
    fn token_soup_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("select".to_string()), Just("from".to_string()), Just("graph".to_string()),
            Just("table".to_string()), Just("create".to_string()), Just("vertex".to_string()),
            Just("edge".to_string()), Just("where".to_string()), Just("def".to_string()),
            Just("foreach".to_string()), Just("into".to_string()), Just("and".to_string()),
            Just("or".to_string()), Just("--".to_string()), Just("-->".to_string()),
            Just("<--".to_string()), Just("(".to_string()), Just(")".to_string()),
            Just("[".to_string()), Just("]".to_string()), Just("{".to_string()),
            Just("}".to_string()), Just("*".to_string()), Just("+".to_string()),
            Just(",".to_string()), Just(".".to_string()), Just(":".to_string()),
            Just("=".to_string()), Just("x".to_string()), Just("V".to_string()),
            Just("1".to_string()), Just("'s'".to_string()), Just("%p%".to_string()),
        ],
        0..30,
    )) {
        let src = parts.join(" ");
        let _ = parse_script(&src);
    }

    /// Valid-ish identifiers round-trip through a simple statement.
    #[test]
    fn identifier_round_trip(name in "[A-Za-z_][A-Za-z0-9_]{0,20}") {
        // Skip the contextual keywords that open other statement forms.
        prop_assume!(!["select", "create", "ingest"].contains(&name.to_ascii_lowercase().as_str()));
        let src = format!("select a from table {name}");
        let stmt = parse_statement(&src).unwrap();
        let printed = stmt.to_string();
        prop_assert_eq!(parse_statement(&printed).unwrap(), stmt);
    }
}

#[test]
fn parse_errors_carry_positions() {
    for src in [
        "select",
        "select a from",
        "select a from table",
        "create vertex V(",
        "create edge e with vertices (A",
        "select * from graph V() --",
        "select * from graph V() --e--> ",
        "select * from graph V() { }+",
        "select * from graph V() { --e--> W }",
        "ingest table",
        "select a from table T order by",
        "%",
        "'unterminated",
    ] {
        match parse_statement(src) {
            Err(GraqlError::Parse { line, col, .. }) => {
                assert!(line >= 1 && col >= 1, "bad position for {src:?}");
            }
            Err(other) => panic!("{src:?}: expected a parse error, got {other:?}"),
            Ok(ast) => panic!("{src:?}: unexpectedly parsed as {ast:?}"),
        }
    }
}

#[test]
fn deeply_nested_conditions_parse() {
    // 64 levels of parentheses must not overflow anything.
    let mut cond = String::from("a = 1");
    for _ in 0..64 {
        cond = format!("({cond})");
    }
    let src = format!("select x from table T where {cond}");
    parse_statement(&src).unwrap();
}

#[test]
fn long_paths_parse() {
    let mut path = String::from("V0()");
    for i in 1..100 {
        path.push_str(&format!(" --e{i}--> V{i}()"));
    }
    let src = format!("select * from graph {path} into subgraph g");
    let stmt = parse_statement(&src).unwrap();
    let printed = stmt.to_string();
    assert_eq!(parse_statement(&printed).unwrap(), stmt);
}

/// The token kinds of `src`, without the trailing `Eof`.
fn kinds(src: &str) -> Vec<TokenKind> {
    let mut toks: Vec<TokenKind> = lex(src).unwrap().into_iter().map(|t| t.kind).collect();
    assert_eq!(toks.pop(), Some(TokenKind::Eof), "{src:?}");
    toks
}

fn ident(s: &str) -> TokenKind {
    TokenKind::Ident(s.to_string())
}

/// An identifier that starts with (or is) a keyword is one identifier:
/// keywords are matched by the parser in context, never split off a
/// longer word by the lexer.
#[test]
fn keyword_prefixed_identifiers_lex_whole() {
    for word in "order or orders android index foreachable intotal selected".split(' ') {
        assert_eq!(kinds(word), vec![ident(word)], "{word:?}");
    }
    // And they parse as names wherever a name goes, next to the
    // keywords they start with.
    let src = "select orders, android from table index \
               where foreachable = 1 or intotal < 2 and selected >= 3 \
               order by orders";
    let stmt = parse_statement(src).unwrap();
    assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
    for word in [
        "orders",
        "android",
        "index",
        "foreachable",
        "intotal",
        "selected",
    ] {
        assert!(stmt.to_string().contains(word), "{word} lost in {stmt}");
    }
}

/// Comparison operators that share a prefix lex by longest match, with
/// or without surrounding spaces; a space splits an operator.
#[test]
fn shared_prefix_operators_lex_longest_match() {
    for (op, kind) in [
        ("<", TokenKind::Lt),
        ("<=", TokenKind::Le),
        ("<>", TokenKind::Ne),
        (">", TokenKind::Gt),
        (">=", TokenKind::Ge),
    ] {
        let want = vec![ident("a"), kind, ident("b")];
        assert_eq!(kinds(&format!("a{op}b")), want, "a{op}b");
        assert_eq!(kinds(&format!("a {op} b")), want, "a {op} b");
        let stmt = parse_statement(&format!("select a from table T where a{op}1")).unwrap();
        let spaced = parse_statement(&format!("select a from table T where a {op} 1")).unwrap();
        assert_eq!(stmt, spaced, "{op}");
    }
    assert_eq!(
        kinds("a< =b"),
        vec![ident("a"), TokenKind::Lt, TokenKind::Eq, ident("b")]
    );
    assert_eq!(
        kinds("a> =b"),
        vec![ident("a"), TokenKind::Gt, TokenKind::Eq, ident("b")]
    );
    assert_eq!(
        kinds("a<>=b"),
        vec![ident("a"), TokenKind::Ne, TokenKind::Eq, ident("b")]
    );
    assert_eq!(
        kinds("a>=-1"),
        vec![
            ident("a"),
            TokenKind::Ge,
            TokenKind::Minus,
            TokenKind::Int(1)
        ]
    );
}
