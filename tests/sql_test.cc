#include <gtest/gtest.h>

#include <limits>

#include "griddb/sql/ast.h"
#include "griddb/sql/dialect.h"
#include "griddb/sql/lexer.h"
#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"

namespace griddb::sql {
namespace {

const Dialect& Oracle() { return Dialect::For(Vendor::kOracle); }
const Dialect& MySql() { return Dialect::For(Vendor::kMySql); }
const Dialect& MsSql() { return Dialect::For(Vendor::kMsSql); }
const Dialect& Sqlite() { return Dialect::For(Vendor::kSqlite); }

// ---------- lexer ----------

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto tokens = Tokenize("SELECT energy FROM events");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "energy");
  EXPECT_TRUE((*tokens)[2].IsKeyword("FROM"));
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From WhErE");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

TEST(LexerTest, NumberForms) {
  auto tokens = Tokenize("42 3.5 .5 1e3 2.5E-2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*tokens)[1].float_value, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[2].float_value, 0.5);
  EXPECT_DOUBLE_EQ((*tokens)[3].float_value, 1000.0);
  EXPECT_DOUBLE_EQ((*tokens)[4].float_value, 0.025);
}

TEST(LexerTest, SubnormalLiteralsParse) {
  auto tokens = Tokenize("4.9406564584124654e-324 2.2250738585072009e-308");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  EXPECT_EQ((*tokens)[0].float_value,
            std::numeric_limits<double>::denorm_min());
  EXPECT_GT((*tokens)[1].float_value, 0.0);
  EXPECT_FALSE(Tokenize("1e999").ok());  // overflow is still an error
}

TEST(LexerTest, StringLiteralsWithEscapedQuote) {
  auto tokens = Tokenize("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, QuotedIdentifierStyles) {
  auto tokens = Tokenize("\"a\" `b` [c]");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].quote, QuoteStyle::kDouble);
  EXPECT_EQ((*tokens)[1].quote, QuoteStyle::kBacktick);
  EXPECT_EQ((*tokens)[2].quote, QuoteStyle::kBracket);
  EXPECT_EQ((*tokens)[2].text, "c");
}

TEST(LexerTest, Comments) {
  auto tokens = Tokenize("SELECT -- trailing\n 1 /* block */ + 2");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[1].int_value, 1);
  EXPECT_TRUE((*tokens)[2].IsOperator("+"));
}

TEST(LexerTest, NotEqualsNormalized) {
  auto tokens = Tokenize("a != b <> c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsOperator("<>"));
  EXPECT_TRUE((*tokens)[3].IsOperator("<>"));
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(Tokenize("SELECT ? FROM t").ok());
}

// ---------- dialect ----------

TEST(DialectTest, VendorNames) {
  EXPECT_STREQ(VendorName(Vendor::kOracle), "oracle");
  EXPECT_EQ(VendorFromName("MySQL").value(), Vendor::kMySql);
  EXPECT_EQ(VendorFromName("sqlserver").value(), Vendor::kMsSql);
  EXPECT_FALSE(VendorFromName("postgres").ok());
}

TEST(DialectTest, QuoteIdentifierOnlyWhenNeeded) {
  EXPECT_EQ(MySql().QuoteIdentifier("energy"), "energy");
  EXPECT_EQ(MySql().QuoteIdentifier("weird col"), "`weird col`");
  EXPECT_EQ(MsSql().QuoteIdentifier("weird col"), "[weird col]");
  EXPECT_EQ(Oracle().QuoteIdentifier("weird col"), "\"weird col\"");
  // Reserved words are quoted.
  EXPECT_EQ(Sqlite().QuoteIdentifier("select"), "\"select\"");
  // Leading digit forces quoting.
  EXPECT_EQ(MySql().QuoteIdentifier("1abc"), "`1abc`");
}

TEST(DialectTest, TypeVocabularyIsVendorSpecific) {
  EXPECT_EQ(Oracle().TypeFromName("VARCHAR2(4000)").value(),
            storage::DataType::kString);
  EXPECT_FALSE(MySql().TypeFromName("VARCHAR2(4000)").ok());
  EXPECT_EQ(MySql().TypeFromName("TINYINT(1)").value(),
            storage::DataType::kInt64);
  EXPECT_EQ(MsSql().TypeFromName("BIT").value(), storage::DataType::kBool);
  EXPECT_EQ(Sqlite().TypeFromName("blob").value(), storage::DataType::kString);
  // Portable core accepted everywhere.
  for (const Dialect* d : {&Oracle(), &MySql(), &MsSql(), &Sqlite()}) {
    EXPECT_EQ(d->TypeFromName("INTEGER").value(), storage::DataType::kInt64);
    EXPECT_EQ(d->TypeFromName("FLOAT").value(), storage::DataType::kDouble);
  }
}

TEST(DialectTest, QuoteAcceptance) {
  EXPECT_TRUE(Oracle().AcceptsQuote(QuoteStyle::kDouble));
  EXPECT_FALSE(Oracle().AcceptsQuote(QuoteStyle::kBacktick));
  EXPECT_TRUE(MySql().AcceptsQuote(QuoteStyle::kBacktick));
  EXPECT_FALSE(MySql().AcceptsQuote(QuoteStyle::kBracket));
  EXPECT_TRUE(Sqlite().AcceptsQuote(QuoteStyle::kBracket));
}

// ---------- parser: SELECT ----------

TEST(ParserTest, SimpleSelect) {
  auto select = ParseSelect("SELECT a, b FROM t WHERE a > 5", Sqlite());
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ((*select)->items.size(), 2u);
  EXPECT_EQ((*select)->from[0].table, "t");
  ASSERT_NE((*select)->where, nullptr);
}

TEST(ParserTest, SelectStarAndQualifiedStar) {
  auto select = ParseSelect("SELECT *, t.* FROM t", Sqlite());
  ASSERT_TRUE(select.ok());
  EXPECT_EQ((*select)->items[0].expr->kind, Expr::Kind::kStar);
  EXPECT_EQ((*select)->items[1].expr->column_ref.table, "t");
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto select = ParseSelect("SELECT a AS x, b y FROM t u", Sqlite());
  ASSERT_TRUE(select.ok());
  EXPECT_EQ((*select)->items[0].alias, "x");
  EXPECT_EQ((*select)->items[1].alias, "y");
  EXPECT_EQ((*select)->from[0].alias, "u");
  EXPECT_EQ((*select)->from[0].EffectiveName(), "u");
}

TEST(ParserTest, JoinForms) {
  auto select = ParseSelect(
      "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y "
      "CROSS JOIN d",
      Sqlite());
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  ASSERT_EQ((*select)->joins.size(), 3u);
  EXPECT_EQ((*select)->joins[0].type, JoinType::kInner);
  EXPECT_EQ((*select)->joins[1].type, JoinType::kLeft);
  EXPECT_EQ((*select)->joins[2].type, JoinType::kCross);
  EXPECT_EQ((*select)->joins[2].on, nullptr);
  EXPECT_EQ((*select)->AllTables().size(), 4u);
}

TEST(ParserTest, CommaJoinList) {
  auto select = ParseSelect("SELECT * FROM a, b, c", Sqlite());
  ASSERT_TRUE(select.ok());
  EXPECT_EQ((*select)->from.size(), 3u);
}

TEST(ParserTest, GroupByHavingOrderBy) {
  auto select = ParseSelect(
      "SELECT tag, COUNT(*) AS n FROM events GROUP BY tag "
      "HAVING COUNT(*) > 2 ORDER BY n DESC, tag",
      Sqlite());
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ((*select)->group_by.size(), 1u);
  ASSERT_NE((*select)->having, nullptr);
  ASSERT_EQ((*select)->order_by.size(), 2u);
  EXPECT_FALSE((*select)->order_by[0].ascending);
  EXPECT_TRUE((*select)->order_by[1].ascending);
}

TEST(ParserTest, PredicateForms) {
  auto select = ParseSelect(
      "SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4) "
      "AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 2 AND 3 "
      "AND e LIKE 'x%' AND f NOT LIKE '_y' AND g IS NULL AND h IS NOT NULL",
      Sqlite());
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  std::vector<const Expr*> conjuncts = SplitConjuncts((*select)->where.get());
  EXPECT_EQ(conjuncts.size(), 8u);
  EXPECT_EQ(conjuncts[0]->kind, Expr::Kind::kIn);
  EXPECT_TRUE(conjuncts[1]->negated);
  EXPECT_EQ(conjuncts[2]->kind, Expr::Kind::kBetween);
  EXPECT_EQ(conjuncts[4]->kind, Expr::Kind::kLike);
  EXPECT_EQ(conjuncts[6]->kind, Expr::Kind::kIsNull);
  EXPECT_TRUE(conjuncts[7]->negated);
}

TEST(ParserTest, OperatorPrecedence) {
  // 1 + 2 * 3 = 7, not 9.
  auto expr = ParseExpression("1 + 2 * 3", Sqlite());
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->binary_op, BinaryOp::kAdd);
  EXPECT_EQ((*expr)->children[1]->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, AndBindsTighterThanOr) {
  auto expr = ParseExpression("a OR b AND c", Sqlite());
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->binary_op, BinaryOp::kOr);
  EXPECT_EQ((*expr)->children[1]->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, FunctionCalls) {
  auto expr = ParseExpression("COUNT(DISTINCT tag)", Sqlite());
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, Expr::Kind::kFunction);
  EXPECT_EQ((*expr)->function_name, "COUNT");
  EXPECT_TRUE((*expr)->distinct_arg);
}

// ---------- parser: dialect-specific limits ----------

TEST(ParserTest, LimitOffsetOnlyInMySqlAndSqlite) {
  EXPECT_TRUE(ParseSelect("SELECT a FROM t LIMIT 5 OFFSET 2", MySql()).ok());
  EXPECT_TRUE(ParseSelect("SELECT a FROM t LIMIT 5", Sqlite()).ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT 5", Oracle()).ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT 5", MsSql()).ok());
  auto select = ParseSelect("SELECT a FROM t LIMIT 5 OFFSET 2", MySql());
  EXPECT_EQ((*select)->limit, 5);
  EXPECT_EQ((*select)->offset, 2);
}

TEST(ParserTest, TopOnlyInMsSql) {
  auto select = ParseSelect("SELECT TOP 3 a FROM t", MsSql());
  ASSERT_TRUE(select.ok());
  EXPECT_EQ((*select)->limit, 3);
  EXPECT_FALSE(ParseSelect("SELECT TOP 3 a FROM t", MySql()).ok());
  EXPECT_FALSE(ParseSelect("SELECT TOP 3 a FROM t", Oracle()).ok());
}

TEST(ParserTest, RownumOnlyInOracle) {
  auto select =
      ParseSelect("SELECT a FROM t WHERE a > 2 AND ROWNUM <= 7", Oracle());
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ((*select)->limit, 7);
  // The ROWNUM conjunct is removed from WHERE.
  std::vector<const Expr*> conjuncts = SplitConjuncts((*select)->where.get());
  EXPECT_EQ(conjuncts.size(), 1u);
  EXPECT_FALSE(
      ParseSelect("SELECT a FROM t WHERE ROWNUM <= 7", MySql()).ok());
}

TEST(ParserTest, RownumStrictLessThan) {
  auto select = ParseSelect("SELECT a FROM t WHERE ROWNUM < 4", Oracle());
  ASSERT_TRUE(select.ok());
  EXPECT_EQ((*select)->limit, 3);
  EXPECT_EQ((*select)->where, nullptr);
}

TEST(ParserTest, UnsupportedRownumUsageRejected) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE ROWNUM = 3", Oracle()).ok());
  EXPECT_FALSE(
      ParseSelect("SELECT a FROM t WHERE ROWNUM + 1 < 3", Oracle()).ok());
}

TEST(ParserTest, QuotedIdentifierAcceptanceByDialect) {
  EXPECT_TRUE(ParseSelect("SELECT `a` FROM `t`", MySql()).ok());
  EXPECT_FALSE(ParseSelect("SELECT `a` FROM `t`", Oracle()).ok());
  EXPECT_TRUE(ParseSelect("SELECT [a] FROM [t]", MsSql()).ok());
  EXPECT_FALSE(ParseSelect("SELECT [a] FROM [t]", MySql()).ok());
  EXPECT_TRUE(ParseSelect("SELECT \"a\" FROM \"t\"", Oracle()).ok());
}

// ---------- parser: DDL / DML ----------

TEST(ParserTest, CreateTable) {
  auto stmt = ParseStatement(
      "CREATE TABLE events (event_id BIGINT PRIMARY KEY, energy DOUBLE, "
      "tag VARCHAR(32) NOT NULL, run_id INT, "
      "FOREIGN KEY (run_id) REFERENCES runs (id))",
      MySql());
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& create = *std::get<std::unique_ptr<CreateTableStmt>>(*stmt);
  EXPECT_EQ(create.table, "events");
  ASSERT_EQ(create.columns.size(), 4u);
  EXPECT_TRUE(create.columns[0].primary_key);
  EXPECT_TRUE(create.columns[2].not_null);
  EXPECT_EQ(create.columns[2].type_name, "VARCHAR(32)");
  ASSERT_EQ(create.foreign_keys.size(), 1u);
  EXPECT_EQ(create.foreign_keys[0].referenced_table, "runs");
}

TEST(ParserTest, CreateTableIfNotExistsAndTableLevelPk) {
  auto stmt = ParseStatement(
      "CREATE TABLE IF NOT EXISTS t (a INT, b INT, PRIMARY KEY (a, b))",
      Sqlite());
  ASSERT_TRUE(stmt.ok());
  const auto& create = *std::get<std::unique_ptr<CreateTableStmt>>(*stmt);
  EXPECT_TRUE(create.if_not_exists);
  EXPECT_EQ(create.primary_key.size(), 2u);
}

TEST(ParserTest, CreateView) {
  auto stmt =
      ParseStatement("CREATE VIEW v AS SELECT a FROM t WHERE a > 1", Sqlite());
  ASSERT_TRUE(stmt.ok());
  const auto& view = *std::get<std::unique_ptr<CreateViewStmt>>(*stmt);
  EXPECT_EQ(view.view, "v");
  ASSERT_NE(view.select, nullptr);
}

TEST(ParserTest, InsertValuesMultiRow) {
  auto stmt = ParseStatement(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')", Sqlite());
  ASSERT_TRUE(stmt.ok());
  const auto& insert = *std::get<std::unique_ptr<InsertStmt>>(*stmt);
  EXPECT_EQ(insert.columns.size(), 2u);
  EXPECT_EQ(insert.rows.size(), 2u);
}

TEST(ParserTest, InsertSelect) {
  auto stmt = ParseStatement("INSERT INTO t SELECT a, b FROM s", Sqlite());
  ASSERT_TRUE(stmt.ok());
  const auto& insert = *std::get<std::unique_ptr<InsertStmt>>(*stmt);
  ASSERT_NE(insert.select, nullptr);
}

TEST(ParserTest, UpdateDeleteDrop) {
  EXPECT_TRUE(
      ParseStatement("UPDATE t SET a = a + 1, b = 'x' WHERE a < 3", Sqlite()).ok());
  EXPECT_TRUE(ParseStatement("DELETE FROM t WHERE a = 1", Sqlite()).ok());
  EXPECT_TRUE(ParseStatement("DROP TABLE IF EXISTS t", Sqlite()).ok());
  auto drop = ParseStatement("DROP VIEW v", Sqlite());
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(std::get<std::unique_ptr<DropStmt>>(*drop)->target,
            DropStmt::Target::kView);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(ParseSelect("SELECT a FROM t;", Sqlite()).ok());
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t garbage garbage", Sqlite()).ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t; SELECT b FROM u", Sqlite()).ok());
}

TEST(ParserTest, SearchedCaseExpression) {
  auto result = ParseSelect(
      "SELECT CASE WHEN a > 1 THEN 'big' WHEN a > 0 THEN 'small' "
      "ELSE 'neg' END FROM t",
      Sqlite());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Expr& expr = *(*result)->items[0].expr;
  EXPECT_EQ(expr.kind, Expr::Kind::kCase);
  EXPECT_FALSE(expr.case_has_operand);
  EXPECT_TRUE(expr.case_has_else);
  EXPECT_EQ(expr.children.size(), 5u);  // 2x (when,then) + else
}

TEST(ParserTest, SimpleCaseExpression) {
  auto result = ParseSelect(
      "SELECT CASE tag WHEN 'muon' THEN 1 WHEN 'electron' THEN 2 END FROM t",
      Sqlite());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Expr& expr = *(*result)->items[0].expr;
  EXPECT_TRUE(expr.case_has_operand);
  EXPECT_FALSE(expr.case_has_else);
  EXPECT_EQ(expr.children.size(), 5u);  // operand + 2x (when,then)
}

TEST(ParserTest, CaseErrors) {
  EXPECT_FALSE(ParseSelect("SELECT CASE END FROM t", Sqlite()).ok());
  EXPECT_FALSE(
      ParseSelect("SELECT CASE WHEN a THEN 1 FROM t", Sqlite()).ok());
  EXPECT_FALSE(ParseSelect("SELECT CASE a THEN 1 END FROM t", Sqlite()).ok());
}

TEST(RenderTest, CaseRoundTrips) {
  for (const char* query :
       {"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END AS label FROM t",
        "SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t"}) {
    auto parsed = ParseSelect(query, Sqlite());
    ASSERT_TRUE(parsed.ok()) << query;
    std::string rendered = RenderSelect(**parsed, Sqlite());
    auto reparsed = ParseSelect(rendered, Sqlite());
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ(RenderSelect(**reparsed, Sqlite()), rendered);
  }
}

// ---------- render ----------

TEST(RenderTest, SelectRoundTripsThroughParser) {
  const char* query =
      "SELECT a, SUM(b) AS total FROM t JOIN u ON t.id = u.id "
      "WHERE a > 1 GROUP BY a HAVING SUM(b) > 10 ORDER BY total DESC";
  auto parsed = ParseSelect(query, Sqlite());
  ASSERT_TRUE(parsed.ok());
  std::string rendered = RenderSelect(**parsed, Sqlite());
  auto reparsed = ParseSelect(rendered, Sqlite());
  ASSERT_TRUE(reparsed.ok()) << "rendered: " << rendered << "\n"
                             << reparsed.status().ToString();
  EXPECT_EQ(RenderSelect(**reparsed, Sqlite()), rendered);
}

TEST(RenderTest, LimitRenderedPerDialect) {
  auto parsed = ParseSelect("SELECT a FROM t LIMIT 10", Sqlite());
  ASSERT_TRUE(parsed.ok());
  const SelectStmt& stmt = **parsed;
  EXPECT_NE(RenderSelect(stmt, MySql()).find("LIMIT 10"), std::string::npos);
  EXPECT_NE(RenderSelect(stmt, MsSql()).find("SELECT TOP 10"),
            std::string::npos);
  EXPECT_NE(RenderSelect(stmt, Oracle()).find("ROWNUM <= 10"),
            std::string::npos);
}

TEST(RenderTest, RownumCombinesWithExistingWhere) {
  auto parsed = ParseSelect("SELECT a FROM t WHERE a > 1 LIMIT 5", MySql());
  ASSERT_TRUE(parsed.ok());
  std::string oracle_text = RenderSelect(**parsed, Oracle());
  // Both the predicate and the ROWNUM clause survive, and Oracle reparses it.
  EXPECT_NE(oracle_text.find("ROWNUM <= 5"), std::string::npos);
  auto reparsed = ParseSelect(oracle_text, Oracle());
  ASSERT_TRUE(reparsed.ok()) << oracle_text;
  EXPECT_EQ((*reparsed)->limit, 5);
  ASSERT_NE((*reparsed)->where, nullptr);
}

TEST(RenderTest, EachDialectReparsesItsOwnRendering) {
  const char* query =
      "SELECT t.a, u.b FROM t JOIN u ON t.id = u.id WHERE t.a BETWEEN 1 AND 9 "
      "ORDER BY t.a LIMIT 4";
  auto canonical = ParseSelect(query, Sqlite());
  ASSERT_TRUE(canonical.ok());
  for (Vendor vendor : {Vendor::kOracle, Vendor::kMySql, Vendor::kMsSql,
                        Vendor::kSqlite}) {
    const Dialect& dialect = Dialect::For(vendor);
    std::string rendered = RenderSelect(**canonical, dialect);
    auto reparsed = ParseSelect(rendered, dialect);
    EXPECT_TRUE(reparsed.ok()) << dialect.name() << ": " << rendered << "\n"
                               << reparsed.status().ToString();
    if (reparsed.ok()) {
      EXPECT_EQ((*reparsed)->limit, 4);
    }
  }
}

TEST(RenderTest, IdentifierQuotingPerDialect) {
  auto parsed = ParseSelect("SELECT \"weird col\" FROM \"my table\"", Sqlite());
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(RenderSelect(**parsed, MySql()).find("`weird col`"),
            std::string::npos);
  EXPECT_NE(RenderSelect(**parsed, MsSql()).find("[weird col]"),
            std::string::npos);
  EXPECT_NE(RenderSelect(**parsed, Oracle()).find("\"weird col\""),
            std::string::npos);
}

TEST(RenderTest, InsertAndCreateTable) {
  auto create = ParseStatement(
      "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10))", MySql());
  ASSERT_TRUE(create.ok());
  std::string ddl = RenderCreateTable(
      *std::get<std::unique_ptr<CreateTableStmt>>(*create), MySql());
  EXPECT_TRUE(ParseStatement(ddl, MySql()).ok()) << ddl;

  auto insert =
      ParseStatement("INSERT INTO t (a, b) VALUES (1, 'it''s')", MySql());
  ASSERT_TRUE(insert.ok());
  std::string dml =
      RenderInsert(*std::get<std::unique_ptr<InsertStmt>>(*insert), MySql());
  EXPECT_TRUE(ParseStatement(dml, MySql()).ok()) << dml;
}

// ---------- AST helpers ----------

TEST(AstTest, ConjunctionOfAndSplit) {
  std::vector<ExprPtr> preds;
  preds.push_back(MakeBinary(BinaryOp::kGt, MakeColumn("", "a"),
                             MakeLiteral(storage::Value(int64_t{1}))));
  preds.push_back(MakeBinary(BinaryOp::kLt, MakeColumn("", "a"),
                             MakeLiteral(storage::Value(int64_t{9}))));
  ExprPtr conj = ConjunctionOf(std::move(preds));
  ASSERT_NE(conj, nullptr);
  EXPECT_EQ(SplitConjuncts(conj.get()).size(), 2u);
  EXPECT_EQ(ConjunctionOf({}), nullptr);
}

TEST(AstTest, CollectColumnRefs) {
  auto expr = ParseExpression("t.a + u.b * 2 - f(c)", Sqlite());
  ASSERT_TRUE(expr.ok());
  std::vector<const ColumnRef*> refs;
  CollectColumnRefs(**expr, refs);
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0]->ToString(), "t.a");
  EXPECT_EQ(refs[2]->ToString(), "c");
}

TEST(AstTest, SelectCloneIsDeep) {
  auto parsed = ParseSelect(
      "SELECT a AS x FROM t JOIN u ON t.id = u.id WHERE a > 1 "
      "GROUP BY a HAVING COUNT(*) > 0 ORDER BY x LIMIT 3",
      Sqlite());
  ASSERT_TRUE(parsed.ok());
  auto clone = (*parsed)->Clone();
  std::string original = RenderSelect(**parsed, Sqlite());
  std::string copied = RenderSelect(*clone, Sqlite());
  EXPECT_EQ(original, copied);
  // Mutating the clone does not affect the original.
  clone->limit = 99;
  EXPECT_EQ(RenderSelect(**parsed, Sqlite()), original);
}

}  // namespace
}  // namespace griddb::sql
