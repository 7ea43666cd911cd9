// Unit tests for src/attr: ranges, schema, messages, subscriptions, and the
// matching predicate (including a property sweep against the definition).

#include <gtest/gtest.h>

#include "attr/message.h"
#include "attr/schema.h"
#include "attr/subscription.h"
#include "common/rng.h"

namespace bluedove {
namespace {

// ---------------------------------------------------------------------------
// Range
// ---------------------------------------------------------------------------

TEST(Range, ContainsIsHalfOpen) {
  const Range r{10, 20};
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(19.999));
  EXPECT_FALSE(r.contains(20));
  EXPECT_FALSE(r.contains(9.999));
}

TEST(Range, OverlapsEdgeCases) {
  const Range r{10, 20};
  EXPECT_TRUE(r.overlaps(Range{0, 11}));
  EXPECT_TRUE(r.overlaps(Range{19, 30}));
  EXPECT_TRUE(r.overlaps(Range{12, 15}));
  EXPECT_TRUE(r.overlaps(Range{0, 100}));
  EXPECT_FALSE(r.overlaps(Range{0, 10}));   // touching at lo: half-open
  EXPECT_FALSE(r.overlaps(Range{20, 30}));  // touching at hi
  EXPECT_FALSE(r.overlaps(Range{21, 30}));
}

TEST(Range, IntersectAndCovers) {
  const Range r{10, 20};
  EXPECT_EQ(r.intersect(Range{15, 30}), (Range{15, 20}));
  EXPECT_TRUE(r.intersect(Range{25, 30}).empty());
  EXPECT_TRUE(Range({0, 100}).covers(r));
  EXPECT_TRUE(r.covers(r));
  EXPECT_FALSE(r.covers(Range{10, 21}));
}

TEST(Range, WidthAndEmpty) {
  EXPECT_DOUBLE_EQ((Range{3, 8}).width(), 5.0);
  EXPECT_TRUE((Range{5, 5}).empty());
  EXPECT_TRUE((Range{7, 3}).empty());
  EXPECT_DOUBLE_EQ((Range{7, 3}).width(), 0.0);
}

TEST(Range, SerdeRoundTrip) {
  serde::Writer w;
  write_range(w, Range{-12.5, 99.25});
  serde::Reader r(w.bytes());
  EXPECT_EQ(read_range(r), (Range{-12.5, 99.25}));
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------------------------
// AttributeSchema
// ---------------------------------------------------------------------------

TEST(Schema, UniformConstruction) {
  const AttributeSchema s = AttributeSchema::uniform(4, 1000.0);
  EXPECT_EQ(s.dimensions(), 4u);
  for (DimId d = 0; d < 4; ++d) {
    EXPECT_EQ(s.domain(d), (Range{0, 1000}));
  }
  EXPECT_EQ(s.name(2), "dim2");
  EXPECT_EQ(s.find("dim3"), 3u);
  EXPECT_EQ(s.find("missing"), 4u);
}

TEST(Schema, ValidPoint) {
  const AttributeSchema s = AttributeSchema::uniform(2, 10.0);
  EXPECT_TRUE(s.valid_point({0.0, 9.99}));
  EXPECT_FALSE(s.valid_point({0.0, 10.0}));  // half-open domain
  EXPECT_FALSE(s.valid_point({-0.1, 5.0}));
  EXPECT_FALSE(s.valid_point({1.0}));            // wrong arity
  EXPECT_FALSE(s.valid_point({1.0, 2.0, 3.0}));  // wrong arity
}

TEST(Schema, ValidPredicates) {
  const AttributeSchema s = AttributeSchema::uniform(2, 10.0);
  EXPECT_TRUE(s.valid_predicates({Range{0, 5}, Range{2, 10}}));
  EXPECT_FALSE(s.valid_predicates({Range{5, 5}, Range{2, 10}}));    // empty
  EXPECT_FALSE(s.valid_predicates({Range{11, 12}, Range{2, 10}}));  // outside
  EXPECT_FALSE(s.valid_predicates({Range{0, 5}}));                  // arity
}

TEST(Schema, NamedDimensions) {
  const AttributeSchema s({{"longitude", Range{-180, 180}},
                           {"latitude", Range{-90, 90}}});
  EXPECT_EQ(s.find("latitude"), 1u);
  EXPECT_EQ(s.domain(0), (Range{-180, 180}));
}

// ---------------------------------------------------------------------------
// Subscription matching
// ---------------------------------------------------------------------------

Subscription make_sub(std::vector<Range> ranges) {
  Subscription s;
  s.id = 1;
  s.subscriber = 1;
  s.ranges = std::move(ranges);
  return s;
}

TEST(Subscription, MatchesRequiresEveryDimension) {
  const Subscription s = make_sub({{0, 10}, {20, 30}, {40, 50}});
  EXPECT_TRUE(s.matches(Message{1, {5, 25, 45}, ""}));
  EXPECT_FALSE(s.matches(Message{1, {15, 25, 45}, ""}));
  EXPECT_FALSE(s.matches(Message{1, {5, 35, 45}, ""}));
  EXPECT_FALSE(s.matches(Message{1, {5, 25, 55}, ""}));
}

TEST(Subscription, MatchesRejectsArityMismatch) {
  const Subscription s = make_sub({{0, 10}, {20, 30}});
  EXPECT_FALSE(s.matches(Message{1, {5}, ""}));
  EXPECT_FALSE(s.matches(Message{1, {5, 25, 45}, ""}));
}

TEST(Subscription, MatchPropertySweep) {
  // Property: matches(m) iff every range contains the coordinate.
  Rng rng(1234);
  for (int iter = 0; iter < 2000; ++iter) {
    Subscription s;
    s.ranges.resize(3);
    Message m;
    bool expect = true;
    for (int d = 0; d < 3; ++d) {
      const double lo = rng.uniform(0, 900);
      s.ranges[d] = Range{lo, lo + rng.uniform(1, 100)};
      const double v = rng.uniform(0, 1000);
      m.values.push_back(v);
      expect = expect && s.ranges[d].contains(v);
    }
    EXPECT_EQ(s.matches(m), expect);
  }
}

TEST(Subscription, SerdeRoundTrip) {
  Subscription s;
  s.id = 42;
  s.subscriber = 99;
  s.ranges = {{0, 10}, {-5, 5}, {100, 200}};
  serde::Writer w;
  write_subscription(w, s);
  serde::Reader r(w.bytes());
  const Subscription back = read_subscription(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(back.id, s.id);
  EXPECT_EQ(back.subscriber, s.subscriber);
  EXPECT_EQ(back.ranges, s.ranges);
}

TEST(Message, SerdeRoundTrip) {
  Message m;
  m.id = 77;
  m.values = {1.5, -2.5, 1000.0};
  m.payload = "payload-bytes";
  serde::Writer w;
  write_message(w, m);
  serde::Reader r(w.bytes());
  const Message back = read_message(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.values, m.values);
  EXPECT_EQ(back.payload, m.payload);
}

}  // namespace
}  // namespace bluedove
