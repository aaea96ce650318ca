//! Recursive-descent parser for statements, queries and expressions.

use std::sync::Arc;

use mahif_expr::{ArithOp, CmpOp, Expr, Value};
use mahif_history::{History, SetClause, Statement};
use mahif_query::{ProjectItem, Query};
use mahif_storage::{Schema, Tuple};

use crate::error::ParseError;
use crate::lexer::{tokenize, Token};

/// Parses a semicolon-separated sequence of statements into a [`History`].
pub fn parse_history(input: &str) -> Result<History, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens, input.len());
    let mut statements = Vec::new();
    while !parser.at_end() {
        statements.push(parser.statement()?);
        // Optional trailing semicolons.
        while parser.eat_token(&Token::Semicolon) {}
    }
    Ok(History::new(statements))
}

/// Parses a single statement (`UPDATE`, `DELETE`, `INSERT`).
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens, input.len());
    let stmt = parser.statement()?;
    while parser.eat_token(&Token::Semicolon) {}
    parser.expect_end()?;
    Ok(stmt)
}

/// Parses a `SELECT` query.
pub fn parse_select(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens, input.len());
    let q = parser.select()?;
    while parser.eat_token(&Token::Semicolon) {}
    parser.expect_end()?;
    Ok(q)
}

/// Parses a *what-if script*: a semicolon-separated list of hypothetical
/// changes to a transactional history, producing the corresponding
/// [`mahif_history::ModificationSet`].
///
/// Statement numbers are 1-based (statement 1 is the first statement of the
/// registered history). Three forms are supported:
///
/// ```text
/// REPLACE STATEMENT <n> WITH <statement>;
/// DROP STATEMENT <n>;
/// INSERT STATEMENT AT <n> <statement>;
/// ```
///
/// ```
/// use mahif_sqlparse::parse_whatif;
/// let m = parse_whatif(
///     "REPLACE STATEMENT 1 WITH UPDATE Orders SET Fee = 0 WHERE Price >= 60;
///      DROP STATEMENT 3;",
/// )
/// .unwrap();
/// assert_eq!(m.len(), 2);
/// ```
pub fn parse_whatif(input: &str) -> Result<mahif_history::ModificationSet, ParseError> {
    use mahif_history::Modification;
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens, input.len());
    let mut modifications = Vec::new();
    while !parser.at_end() {
        if parser.eat_keyword("REPLACE") {
            parser.expect_keyword("STATEMENT")?;
            let position = parser.statement_number()?;
            parser.expect_keyword("WITH")?;
            let stmt = parser.statement()?;
            modifications.push(Modification::replace(position, stmt));
        } else if parser.eat_keyword("DROP") {
            parser.expect_keyword("STATEMENT")?;
            let position = parser.statement_number()?;
            modifications.push(Modification::delete(position));
        } else if parser.eat_keyword("INSERT") && parser.eat_keyword("STATEMENT") {
            parser.expect_keyword("AT")?;
            let position = parser.statement_number()?;
            let stmt = parser.statement()?;
            modifications.push(Modification::insert(position, stmt));
        } else {
            return Err(ParseError::new(
                "expected `REPLACE STATEMENT`, `DROP STATEMENT` or `INSERT STATEMENT AT` in what-if script",
                0,
            ));
        }
        while parser.eat_token(&Token::Semicolon) {}
    }
    Ok(mahif_history::ModificationSet::new(modifications))
}

/// Parses a scalar expression.
pub fn parse_expression(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens, input.len());
    let e = parser.expression()?;
    parser.expect_end()?;
    Ok(e)
}

/// Parses a condition (boolean expression).
pub fn parse_condition(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens, input.len());
    let e = parser.condition()?;
    parser.expect_end()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn new(tokens: Vec<(Token, usize)>, input_len: usize) -> Self {
        Parser {
            tokens,
            pos: 0,
            input_len,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(_, o)| *o)
            .unwrap_or(self.input_len)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.offset())
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    fn eat_token(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn expect_token(&mut self, token: Token, what: &str) -> Result<(), ParseError> {
        if self.eat_token(&token) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn identifier(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    /// Reads a 1-based statement number (what-if scripts) and converts it to
    /// the 0-based history position.
    fn statement_number(&mut self) -> Result<usize, ParseError> {
        match self.next() {
            Some(Token::Int(n)) if n >= 1 => Ok((n - 1) as usize),
            Some(Token::Int(_)) => Err(self.error("statement numbers are 1-based")),
            _ => Err(self.error("expected a statement number")),
        }
    }

    // ----- statements -------------------------------------------------

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword("UPDATE") {
            return self.update_statement();
        }
        if self.eat_keyword("DELETE") {
            return self.delete_statement();
        }
        if self.eat_keyword("INSERT") {
            return self.insert_statement();
        }
        Err(self.error("expected UPDATE, DELETE or INSERT"))
    }

    fn update_statement(&mut self) -> Result<Statement, ParseError> {
        let relation = self.identifier("relation name")?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let attr = self.identifier("attribute name")?;
            self.expect_token(Token::Eq, "`=`")?;
            let expr = self.expression()?;
            assignments.push((attr, expr));
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let cond = if self.eat_keyword("WHERE") {
            self.condition()?
        } else {
            Expr::true_()
        };
        Ok(Statement::update(
            relation,
            SetClause::new(assignments),
            cond,
        ))
    }

    fn delete_statement(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("FROM")?;
        let relation = self.identifier("relation name")?;
        let cond = if self.eat_keyword("WHERE") {
            self.condition()?
        } else {
            Expr::true_()
        };
        Ok(Statement::delete(relation, cond))
    }

    fn insert_statement(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("INTO")?;
        let relation = self.identifier("relation name")?;
        if self.eat_keyword("VALUES") {
            self.expect_token(Token::LParen, "`(`")?;
            let mut values = Vec::new();
            loop {
                values.push(self.literal_value()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(Token::RParen, "`)`")?;
            return Ok(Statement::insert_values(relation, Tuple::new(values)));
        }
        if self.peek().is_some_and(|t| t.is_keyword("SELECT")) {
            let query = self.select()?;
            return Ok(Statement::insert_query(relation, query));
        }
        Err(self.error("expected VALUES or SELECT"))
    }

    fn literal_value(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Minus) => match self.next() {
                Some(Token::Int(i)) => Ok(Value::Int(-i)),
                _ => Err(self.error("expected integer after `-`")),
            },
            Some(Token::Str(s)) => Ok(Value::str(s)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            _ => Err(self.error("expected literal value")),
        }
    }

    // ----- queries ----------------------------------------------------

    fn select(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        // Projection list: `*` or expr [AS name], ...
        let star = self.eat_token(&Token::Star);
        let mut items: Vec<(Expr, Option<String>)> = Vec::new();
        if !star {
            loop {
                let expr = self.expression()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.identifier("alias")?)
                } else {
                    None
                };
                items.push((expr, alias));
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_keyword("FROM")?;
        let relation = self.identifier("relation name")?;
        let mut query = Query::scan(&relation);
        if self.eat_keyword("WHERE") {
            let cond = self.condition()?;
            query = Query::select(cond, query);
        }
        if !star {
            let project_items = items
                .into_iter()
                .enumerate()
                .map(|(i, (expr, alias))| {
                    let name = alias.unwrap_or_else(|| match &expr {
                        Expr::Attr(a) => a.clone(),
                        _ => format!("col{}", i + 1),
                    });
                    ProjectItem::new(expr, name)
                })
                .collect();
            query = Query::project(project_items, query);
        }
        Ok(query)
    }

    // ----- expressions --------------------------------------------------
    //
    // condition  := and_cond (OR and_cond)*
    // and_cond   := not_cond (AND not_cond)*
    // not_cond   := NOT not_cond | predicate
    // predicate  := expression ((=|<>|<|<=|>|>=) expression | IS [NOT] NULL)?
    // expression := term ((+|-) term)*
    // term       := factor ((*|/) factor)*
    // factor     := literal | identifier | ( condition ) | - factor
    //               | CASE WHEN condition THEN expression ELSE expression END

    fn condition(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_condition()?;
        while self.eat_keyword("OR") {
            let right = self.and_condition()?;
            left = Expr::Or(Arc::new(left), Arc::new(right));
        }
        Ok(left)
    }

    fn and_condition(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_condition()?;
        while self.eat_keyword("AND") {
            let right = self.not_condition()?;
            left = Expr::And(Arc::new(left), Arc::new(right));
        }
        Ok(left)
    }

    fn not_condition(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword("NOT") {
            let inner = self.not_condition()?;
            return Ok(Expr::Not(Arc::new(inner)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let left = self.expression()?;
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let test = Expr::IsNull(Arc::new(left));
            return Ok(if negated {
                Expr::Not(Arc::new(test))
            } else {
                test
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Neq) => Some(CmpOp::Neq),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let right = self.expression()?;
                Ok(Expr::Cmp {
                    op,
                    left: Arc::new(left),
                    right: Arc::new(right),
                })
            }
            None => Ok(left),
        }
    }

    fn expression(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.term()?;
            left = Expr::Arith {
                op,
                left: Arc::new(left),
                right: Arc::new(right),
            };
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.factor()?;
            left = Expr::Arith {
                op,
                left: Arc::new(left),
                right: Arc::new(right),
            };
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Const(Value::Int(i)))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                let inner = self.factor()?;
                Ok(Expr::Arith {
                    op: ArithOp::Sub,
                    left: Arc::new(Expr::Const(Value::Int(0))),
                    right: Arc::new(inner),
                })
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Const(Value::str(s)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let inner = self.condition()?;
                self.expect_token(Token::RParen, "`)`")?;
                Ok(inner)
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("NULL") => {
                self.pos += 1;
                Ok(Expr::Const(Value::Null))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("TRUE") => {
                self.pos += 1;
                Ok(Expr::true_())
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("FALSE") => {
                self.pos += 1;
                Ok(Expr::false_())
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("CASE") => {
                self.pos += 1;
                self.expect_keyword("WHEN")?;
                let cond = self.condition()?;
                self.expect_keyword("THEN")?;
                let then_branch = self.expression()?;
                self.expect_keyword("ELSE")?;
                let else_branch = self.expression()?;
                self.expect_keyword("END")?;
                Ok(Expr::IfThenElse {
                    cond: Arc::new(cond),
                    then_branch: Arc::new(then_branch),
                    else_branch: Arc::new(else_branch),
                })
            }
            Some(Token::Ident(s)) => {
                self.pos += 1;
                Ok(Expr::Attr(s))
            }
            _ => Err(self.error("expected expression")),
        }
    }
}

/// Convenience: the schema-aware tuple constructor used by examples — builds
/// a tuple for `schema` from SQL literal text like `(11, 'Susan', 'UK', 20, 5)`.
pub fn parse_tuple(schema: &Schema, input: &str) -> Result<Tuple, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens, input.len());
    parser.expect_token(Token::LParen, "`(`")?;
    let mut values = Vec::new();
    loop {
        values.push(parser.literal_value()?);
        if !parser.eat_token(&Token::Comma) {
            break;
        }
    }
    parser.expect_token(Token::RParen, "`)`")?;
    parser.expect_end()?;
    if values.len() != schema.arity() {
        return Err(ParseError::new(
            format!(
                "tuple has {} values but schema `{}` has arity {}",
                values.len(),
                schema.relation,
                schema.arity()
            ),
            0,
        ));
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::statement::{running_example_database, running_example_history};
    use mahif_query::evaluate;

    #[test]
    fn parse_running_example_history() {
        let sql = "
            UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;
            UPDATE Orders SET ShippingFee = ShippingFee + 5
              WHERE Country = 'UK' AND Price <= 100;
            UPDATE Orders SET ShippingFee = ShippingFee - 2
              WHERE Price <= 30 AND ShippingFee >= 10;
        ";
        let history = parse_history(sql).unwrap();
        assert_eq!(history.len(), 3);
        // Semantically identical to the hand-built running example (modulo
        // the relation name used in the SQL text).
        let expected = running_example_history();
        if let (
            Statement::Update { cond, .. },
            Statement::Update {
                cond: expected_cond,
                ..
            },
        ) = (&history.statements()[0], &expected[0])
        {
            assert_eq!(cond, expected_cond);
        } else {
            panic!("expected updates");
        }
    }

    #[test]
    fn parsed_history_executes_like_hand_built_one() {
        let sql = "
            UPDATE Order SET ShippingFee = 0 WHERE Price >= 50;
            UPDATE Order SET ShippingFee = ShippingFee + 5
              WHERE Country = 'UK' AND Price <= 100;
            UPDATE Order SET ShippingFee = ShippingFee - 2
              WHERE Price <= 30 AND ShippingFee >= 10;
        ";
        let parsed = parse_history(sql).unwrap();
        let db = running_example_database();
        let from_sql = parsed.execute(&db).unwrap();
        let from_api = History::new(running_example_history())
            .execute(&db)
            .unwrap();
        assert!(from_sql.set_eq(&from_api));
    }

    #[test]
    fn parse_update_without_where() {
        let stmt = parse_statement("UPDATE R SET A = A + 1").unwrap();
        match stmt {
            Statement::Update { cond, .. } => assert!(cond.is_true()),
            _ => panic!("expected update"),
        }
    }

    #[test]
    fn parse_delete() {
        let stmt = parse_statement("DELETE FROM Orders WHERE Price >= 50").unwrap();
        assert_eq!(
            stmt,
            Statement::delete("Orders", ge(attr("Price"), lit(50)))
        );
    }

    #[test]
    fn parse_insert_values() {
        let stmt =
            parse_statement("INSERT INTO Orders VALUES (15, 'Eve', 'UK', -10, NULL)").unwrap();
        match stmt {
            Statement::InsertValues { relation, tuple } => {
                assert_eq!(relation, "Orders");
                assert_eq!(tuple.arity(), 5);
                assert_eq!(tuple.value(3), Some(&Value::Int(-10)));
                assert_eq!(tuple.value(4), Some(&Value::Null));
            }
            _ => panic!("expected insert"),
        }
    }

    #[test]
    fn parse_insert_select_and_evaluate() {
        let stmt = parse_statement(
            "INSERT INTO Order SELECT ID + 100 AS ID, Customer, Country, Price, ShippingFee \
             FROM Order WHERE Country = 'UK'",
        )
        .unwrap();
        let mut db = running_example_database();
        stmt.apply(&mut db).unwrap();
        assert_eq!(db.relation("Order").unwrap().len(), 6);
    }

    #[test]
    fn parse_select_star_and_projection() {
        let db = running_example_database();
        let q = parse_select("SELECT * FROM Order WHERE Price >= 50").unwrap();
        assert_eq!(evaluate(&q, &db).unwrap().len(), 2);
        let q = parse_select("SELECT ID, Price + ShippingFee AS Total FROM Order").unwrap();
        let r = evaluate(&q, &db).unwrap();
        assert_eq!(r.schema.attribute_names(), vec!["ID", "Total"]);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(simplified_int(&e), 7);
        let e = parse_expression("(1 + 2) * 3").unwrap();
        assert_eq!(simplified_int(&e), 9);
        let e = parse_expression("10 - 2 - 3").unwrap();
        assert_eq!(simplified_int(&e), 5);
        let e = parse_expression("-4 + 10").unwrap();
        assert_eq!(simplified_int(&e), 6);
    }

    fn simplified_int(e: &Expr) -> i64 {
        match mahif_expr::simplify(e) {
            Expr::Const(Value::Int(i)) => i,
            other => panic!("expected constant, got {other}"),
        }
    }

    #[test]
    fn condition_precedence_and_not() {
        // AND binds tighter than OR.
        let c = parse_condition("A = 1 OR B = 2 AND C = 3").unwrap();
        assert!(matches!(c, Expr::Or(..)));
        let c = parse_condition("NOT A = 1 AND B = 2").unwrap();
        assert!(matches!(c, Expr::And(..)));
        let c = parse_condition("A IS NULL OR B IS NOT NULL").unwrap();
        assert!(matches!(c, Expr::Or(..)));
    }

    #[test]
    fn case_when_parses_to_if_then_else() {
        let e = parse_expression("CASE WHEN Price >= 50 THEN 0 ELSE ShippingFee END").unwrap();
        assert!(matches!(e, Expr::IfThenElse { .. }));
    }

    #[test]
    fn parse_tuple_checks_arity() {
        let schema = Schema::new(
            "R",
            vec![
                mahif_storage::Attribute::int("A"),
                mahif_storage::Attribute::str("B"),
            ],
        );
        let t = parse_tuple(&schema, "(1, 'x')").unwrap();
        assert_eq!(t.arity(), 2);
        assert!(parse_tuple(&schema, "(1)").is_err());
        assert!(parse_tuple(&schema, "(1, 'x', 3)").is_err());
    }

    #[test]
    fn syntax_errors() {
        assert!(parse_statement("SELECT * FROM R").is_err());
        assert!(parse_statement("UPDATE R").is_err());
        assert!(parse_statement("UPDATE R SET").is_err());
        assert!(parse_statement("DELETE R WHERE A = 1").is_err());
        assert!(parse_statement("INSERT INTO R (1, 2)").is_err());
        assert!(parse_condition("A = ").is_err());
        assert!(parse_expression("1 + ").is_err());
        assert!(parse_expression("(1 + 2").is_err());
        assert!(parse_condition("A = 1 extra").is_err());
    }
}
