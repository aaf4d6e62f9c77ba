#include "metrics/emitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "dissemination/event_engine.hpp"

namespace ltnc::metrics {
namespace {

TEST(RunRecord, KeepsInsertionOrderAndOverwritesInPlace) {
  RunRecord r;
  r.set("a", std::uint64_t{1});
  r.set("b", 2.5);
  r.set("c", std::string("x"));
  r.set("b", 3.5);  // overwrite keeps position
  ASSERT_EQ(r.fields().size(), 3u);
  EXPECT_EQ(r.fields()[0].key, "a");
  EXPECT_EQ(r.fields()[1].key, "b");
  EXPECT_EQ(std::get<double>(r.fields()[1].value), 3.5);
  EXPECT_TRUE(r.has("c"));
  EXPECT_FALSE(r.has("d"));
  EXPECT_EQ(std::get<std::uint64_t>(r.at("a")), 1u);
  EXPECT_THROW(r.at("missing"), std::logic_error);
}

TEST(Emitter, JsonArrayOfObjects) {
  RunRecord r;
  r.set("name", std::string("run \"one\"\n"));
  r.set("n", std::uint64_t{42});
  r.set("rate", 0.5);
  r.set("ok", true);
  std::ostringstream out;
  write_json(out, {r, r});
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\": \"run \\\"one\\\"\\n\""), std::string::npos);
  EXPECT_NE(text.find("\"n\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"rate\": 0.5"), std::string::npos);
  EXPECT_NE(text.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("},"), std::string::npos);  // two objects
  // Objects rendered one at a time splice into the same array.
  std::ostringstream spliced;
  write_json_objects(spliced, {json_object(r), json_object(r)});
  EXPECT_EQ(spliced.str(), text);
}

TEST(Emitter, CsvHeaderAndRows) {
  RunRecord a;
  a.set("x", std::uint64_t{1});
  a.set("y", 2.0);
  RunRecord b;
  b.set("x", std::uint64_t{3});
  b.set("y", 4.0);
  std::ostringstream out;
  write_csv(out, {a, b});
  EXPECT_EQ(out.str(), "x,y\n1,2\n3,4\n");
}

TEST(Emitter, CsvPrintsStringCellsUnquoted) {
  // Pre-formatted string cells, as the benches' result tables carry them.
  const std::vector<RunRecord> rows{{{"x", "1"}, {"y", "2"}},
                                    {{"x", "3"}, {"y", "4"}}};
  std::ostringstream out;
  write_csv(out, rows);
  EXPECT_EQ(out.str(), "x,y\n1,2\n3,4\n");
}

TEST(Emitter, CsvEscapesStringsPerRfc4180) {
  RunRecord a;
  a.set("plain", std::string("hello"));
  a.set("comma", std::string("a,b"));
  a.set("quote", std::string("say \"hi\""));
  a.set("newline", std::string("two\nlines"));
  std::ostringstream out;
  write_csv(out, {a});
  EXPECT_EQ(out.str(),
            "plain,comma,quote,newline\n"
            "hello,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n");
}

TEST(Emitter, CsvRejectsMismatchedLayouts) {
  RunRecord a;
  a.set("x", std::uint64_t{1});
  RunRecord b;
  b.set("z", std::uint64_t{2});
  std::ostringstream out;
  EXPECT_THROW(write_csv(out, {a, b}), std::logic_error);
}

TEST(Emitter, FixedFormatsNumbers) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
  EXPECT_EQ(fixed(-0.25, 1), "-0.2");
}

TEST(Emitter, TablePrintsAlignedBox) {
  const std::vector<RunRecord> rows{{{"k", "512"}, {"value", "1.5"}},
                                    {{"k", "2048"}, {"value", "10.25"}}};
  std::ostringstream out;
  write_table(out, rows);
  // Header cells left-aligned, body cells right-aligned, boxed by rules.
  EXPECT_EQ(out.str(),
            "+------+-------+\n"
            "| k    | value |\n"
            "+------+-------+\n"
            "|  512 |   1.5 |\n"
            "| 2048 | 10.25 |\n"
            "+------+-------+\n");
}

TEST(Emitter, TableHasOneRowPerRecord) {
  std::vector<RunRecord> rows;
  for (std::uint64_t i = 0; i < 3; ++i) rows.push_back({{"x", i}});
  std::ostringstream out;
  write_table(out, rows);
  const std::string text = out.str();
  // Three rules, the header and one line per record.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3 + 1 + 3);
  std::ostringstream none;
  write_table(none, std::vector<RunRecord>{});
  EXPECT_EQ(none.str(), "");
}

TEST(Emitter, TableRejectsEmptyHeaderAndRaggedRows) {
  std::ostringstream out;
  EXPECT_THROW(write_table(out, std::vector<RunRecord>{RunRecord{}}),
               std::logic_error);
  const RunRecord a{{"a", std::uint64_t{1}}, {"b", std::uint64_t{2}}};
  const RunRecord only_one{{"a", std::uint64_t{3}}};
  EXPECT_THROW(write_table(out, std::vector<RunRecord>{a, only_one}),
               std::logic_error);
}

TEST(Emitter, SingleRecordTableIsKeyValue) {
  const RunRecord r{{"scheme", "LTNC"}, {"rounds_run", std::uint64_t{42}},
                    {"overhead", 0.25}, {"all_complete", true}};
  std::ostringstream out;
  write_table(out, r);
  EXPECT_EQ(out.str(),
            "+--------------+-------+\n"
            "| key          | value |\n"
            "+--------------+-------+\n"
            "|       scheme |  LTNC |\n"
            "|   rounds_run |    42 |\n"
            "|     overhead |  0.25 |\n"
            "| all_complete |  true |\n"
            "+--------------+-------+\n");
}

TEST(Emitter, WritersRenderTheSameKeysInTheSameOrder) {
  const std::vector<RunRecord> rows{
      {{"section", "sim"}, {"loss", 0.5}, {"blocks", std::uint64_t{48}},
       {"delta", std::int64_t{-3}}, {"ok", false}},
      {{"section", "udp"}, {"loss", 0.0}, {"blocks", std::uint64_t{30}},
       {"delta", std::int64_t{7}}, {"ok", true}}};
  const std::vector<std::string> keys{"section", "loss", "blocks", "delta",
                                      "ok"};
  std::ostringstream table, csv, json;
  write_table(table, rows);
  write_csv(csv, rows);
  write_json(json, rows);

  // The table header line and the CSV header row.
  const std::string table_text = table.str();
  const std::size_t header_start = table_text.find('\n') + 1;
  const std::string header = table_text.substr(
      header_start, table_text.find('\n', header_start) - header_start);
  const std::string csv_text = csv.str();
  EXPECT_EQ(csv_text.substr(0, csv_text.find('\n')),
            "section,loss,blocks,delta,ok");
  // Every writer shows each key once, in insertion order.
  std::size_t table_at = 0, json_at = 0;
  for (const std::string& key : keys) {
    const std::size_t t = header.find("| " + key + " ");
    ASSERT_NE(t, std::string::npos) << key;
    EXPECT_GT(t + 1, table_at) << key;
    table_at = t + 1;
    const std::size_t j = json.str().find("\"" + key + "\": ");
    ASSERT_NE(j, std::string::npos) << key;
    EXPECT_GT(j + 1, json_at) << key;
    json_at = j + 1;
  }
}

TEST(Emitter, SimRunRecordCarriesTheSharedSchema) {
  dissem::SimConfig cfg;
  cfg.num_nodes = 24;
  cfg.k = 16;
  cfg.payload_bytes = 16;
  cfg.seed = 7;
  cfg.source_pushes_per_round = 2;
  const dissem::SimResult res = dissem::run_event_simulation(
      session::Scheme::kLtnc, cfg, dissem::EngineMode::kScale);
  const RunRecord r = dissem::sim_run_record(res);
  EXPECT_EQ(std::get<std::string>(r.at("scheme")), "LTNC");
  EXPECT_EQ(std::get<std::uint64_t>(r.at("num_nodes")), 24u);
  EXPECT_EQ(std::get<std::uint64_t>(r.at("wire_bytes_total")),
            res.traffic.wire_bytes_total());
  EXPECT_TRUE(std::get<bool>(r.at("all_complete")));
  // Session and op totals, summed over the node endpoints.
  EXPECT_EQ(std::get<std::uint64_t>(r.at("session_advertises")),
            res.sessions.advertises_received);
  EXPECT_EQ(std::get<std::uint64_t>(r.at("session_aborts")),
            res.sessions.aborts_sent);
  EXPECT_EQ(std::get<std::uint64_t>(r.at("decode_control_ops")),
            res.decode_ops.control_total());
  EXPECT_EQ(std::get<std::uint64_t>(r.at("recode_control_ops")),
            res.recode_ops.control_total());
  EXPECT_GT(res.sessions.advertises_received, 0u);
  EXPECT_GT(res.decode_ops.control_total(), 0u);
  EXPECT_GT(res.recode_ops.control_total(), 0u);
  // The ledger columns lead, the new totals follow them.
  EXPECT_EQ(r.fields().back().key, "recode_control_ops");
  // Every writer accepts the record.
  std::ostringstream json, csv;
  write_json(json, {r});
  write_csv(csv, {r});
  EXPECT_NE(json.str().find("\"nodes_complete\": 24"), std::string::npos);
  EXPECT_NE(csv.str().find("nodes_complete"), std::string::npos);
}

}  // namespace
}  // namespace ltnc::metrics
