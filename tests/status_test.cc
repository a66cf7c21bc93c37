#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace rdfref {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad atom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad atom");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad atom");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "PARSE_ERROR");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
}

TEST(StatusTest, DeadlineExceededFactory) {
  Status s = Status::DeadlineExceeded("query budget spent");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DEADLINE_EXCEEDED: query budget spent");
}

Status FailingOperation() { return Status::Internal("boom"); }

Status PropagatingOperation() {
  RDFREF_RETURN_NOT_OK(FailingOperation());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_EQ(PropagatingOperation(), Status::Internal("boom"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubledPositive(int x) {
  RDFREF_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnPropagatesAndAssigns) {
  Result<int> ok = DoubledPositive(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  Result<int> err = DoubledPositive(0);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

}  // namespace
}  // namespace rdfref
