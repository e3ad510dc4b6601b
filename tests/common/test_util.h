#ifndef QP_TESTS_COMMON_TEST_UTIL_H_
#define QP_TESTS_COMMON_TEST_UTIL_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "qp/exec/result.h"
#include "qp/query/query.h"
#include "qp/relational/database.h"
#include "qp/util/status.h"

namespace qp {
namespace testing_util {

#define QP_ASSERT_OK(expr)                                     \
  do {                                                         \
    const ::qp::Status qp_test_status = (expr);                \
    ASSERT_TRUE(qp_test_status.ok()) << qp_test_status;        \
  } while (0)

#define QP_EXPECT_OK(expr)                                     \
  do {                                                         \
    const ::qp::Status qp_test_status = (expr);                \
    EXPECT_TRUE(qp_test_status.ok()) << qp_test_status;        \
  } while (0)

/// Asserts `result_expr` (a Result<T>) is OK and moves its value into
/// `lhs`, e.g. QP_ASSERT_OK_AND_ASSIGN(Database db, Generate(...));
#define QP_ASSERT_OK_AND_ASSIGN(lhs, result_expr)              \
  QP_ASSERT_OK_AND_ASSIGN_IMPL(                                \
      QP_STATUS_CONCAT(qp_test_result_, __LINE__), lhs, result_expr)
#define QP_ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, result_expr)    \
  auto tmp = (result_expr);                                    \
  ASSERT_TRUE(tmp.ok()) << tmp.status();                       \
  lhs = std::move(tmp).value()

/// The executor's test oracle: a brute-force reading of the paper's two
/// query forms that uses no index, key code, join order, code-tuple
/// grouping or cancellation. Each overload returns the canonicalized
/// answer, so it compares with Executor::Execute row for row. `query` must be valid.
///
/// SELECT: for each conjunct of the qualification's DNF, nested loops
/// bind tuple variables in FROM order, checking each atom as soon as its
/// variables are bound. A binding's satisfaction is the product of its
/// near conditions. Without DISTINCT a row is a satisfying binding of
/// every FROM variable, counted once however many conjuncts it
/// satisfies; with DISTINCT it is a distinct projected row, and a
/// conjunct binds only the variables it or the projection uses (an empty
/// FROM table empties the answer either way). A row reached more than
/// once keeps its best satisfaction.
///
/// Compound (UNION ALL / GROUP BY / HAVING / ORDER BY doi / EXCEPT): each
/// part's rows, parts in order, add part degree x satisfaction to their
/// row's group, a negative product as a dislike. A group that some
/// positive part reached then passes HAVING on its count or on likes
/// minus dislikes, unless an exclusion query returns its row.
ResultSet ReferenceExecute(const Database& db, const SelectQuery& query);
ResultSet ReferenceExecute(const Database& db, const CompoundQuery& query);

/// Every observable of a result, one line per row in order: columns,
/// cells, count and degree when ranked, satisfaction when present, and
/// the truncated flag. Doubles print as %a, so two results render alike
/// exactly when their doubles are bit-identical.
std::string ExactString(const ResultSet& result);

/// Multiset equality of row collections (order-insensitive).
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b);

/// Writes the flight recorder's JSON dump to `<label>_blackbox.json`
/// (under $QP_ARTIFACT_DIR when set, the working directory otherwise)
/// and names the path on stderr. Chaos suites call it when a trial
/// fails, so the in-memory blackbox rides along as the post-mortem
/// artifact. Returns the path, or "" when the write failed.
std::string DumpFlightRecorderSnapshot(const std::string& label);

}  // namespace testing_util
}  // namespace qp

#endif  // QP_TESTS_COMMON_TEST_UTIL_H_
