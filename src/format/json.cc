#include "format/json.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>

#include "arrow/builder.h"
#include "compute/cast.h"

namespace fusion {
namespace format {
namespace json {

namespace {

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }
  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }
  char Peek() { return text_[pos_]; }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::ParseError("json: expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            // Keep ASCII subset; non-ASCII escapes pass through raw.
            if (pos_ + 4 <= text_.size()) {
              unsigned code = 0;
              std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
              pos_ += 4;
              if (code < 0x80) {
                out.push_back(static_cast<char>(code));
              } else {
                out += "?";
              }
            }
            break;
          }
          default: out.push_back(esc);
        }
      } else {
        out.push_back(c);
      }
    }
    return Status::ParseError("json: unterminated string");
  }

  /// Parse any value as a JsonValue (nested containers become kRaw).
  Result<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Status::ParseError("json: unexpected end");
    JsonValue v;
    char c = text_[pos_];
    if (c == '"') {
      FUSION_ASSIGN_OR_RAISE(v.text, ParseString());
      v.kind = JsonValue::Kind::kString;
      return v;
    }
    if (c == '{' || c == '[') {
      size_t start = pos_;
      FUSION_RETURN_NOT_OK(SkipContainer());
      v.kind = JsonValue::Kind::kRaw;
      v.text = std::string(text_.substr(start, pos_ - start));
      return v;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      v.kind = JsonValue::Kind::kNull;
      return v;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.kind = JsonValue::Kind::kBool;
      v.bool_value = true;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.kind = JsonValue::Kind::kBool;
      v.bool_value = false;
      return v;
    }
    // Number.
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    std::string_view num = text_.substr(start, pos_ - start);
    if (num.empty()) return Status::ParseError("json: invalid value");
    if (num.find('.') == std::string_view::npos &&
        num.find('e') == std::string_view::npos &&
        num.find('E') == std::string_view::npos) {
      int64_t iv = 0;
      auto res = std::from_chars(num.data(), num.data() + num.size(), iv);
      if (res.ec == std::errc()) {
        v.kind = JsonValue::Kind::kInt;
        v.int_value = iv;
        return v;
      }
    }
    std::string tmp(num);
    v.kind = JsonValue::Kind::kDouble;
    v.double_value = std::strtod(tmp.c_str(), nullptr);
    return v;
  }

  Status SkipContainer() {
    int depth = 0;
    bool in_string = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (in_string) {
        if (c == '\\') {
          ++pos_;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        --depth;
        if (depth == 0) return Status::OK();
      }
    }
    return Status::ParseError("json: unterminated container");
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Result<std::vector<std::string>> ReadLines(const std::string& path, int64_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("json: cannot open " + path);
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[1 << 16];
  for (;;) {
    size_t n = std::fread(chunk, 1, sizeof(chunk), f);
    buffer.append(chunk, n);
    size_t pos = 0;
    for (;;) {
      size_t nl = buffer.find('\n', pos);
      if (nl == std::string::npos) break;
      if (nl > pos) lines.emplace_back(buffer.substr(pos, nl - pos));
      pos = nl + 1;
      if (limit > 0 && static_cast<int64_t>(lines.size()) >= limit) {
        std::fclose(f);
        return lines;
      }
    }
    buffer.erase(0, pos);
    if (n < sizeof(chunk)) break;
  }
  std::fclose(f);
  if (!buffer.empty()) lines.push_back(std::move(buffer));
  return lines;
}

}  // namespace

Result<std::vector<std::pair<std::string, JsonValue>>> ParseObject(
    const std::string& line) {
  JsonCursor cur(line);
  std::vector<std::pair<std::string, JsonValue>> out;
  if (!cur.Consume('{')) return Status::ParseError("json: expected object");
  if (cur.Consume('}')) return out;
  for (;;) {
    FUSION_ASSIGN_OR_RAISE(std::string key, cur.ParseString());
    if (!cur.Consume(':')) return Status::ParseError("json: expected ':'");
    FUSION_ASSIGN_OR_RAISE(JsonValue value, cur.ParseValue());
    out.emplace_back(std::move(key), std::move(value));
    if (cur.Consume('}')) return out;
    if (!cur.Consume(',')) return Status::ParseError("json: expected ',' or '}'");
  }
}

Result<SchemaPtr> InferSchema(const std::string& path, const Options& options) {
  if (options.schema != nullptr) return options.schema;
  FUSION_ASSIGN_OR_RAISE(auto lines, ReadLines(path, options.infer_rows));
  // Preserve key order of first appearance; widen types as needed.
  std::vector<std::string> order;
  std::map<std::string, DataType> types;
  for (const auto& line : lines) {
    FUSION_ASSIGN_OR_RAISE(auto obj, ParseObject(line));
    for (const auto& [key, value] : obj) {
      DataType t;
      switch (value.kind) {
        case JsonValue::Kind::kNull: t = null_type(); break;
        case JsonValue::Kind::kBool: t = boolean(); break;
        case JsonValue::Kind::kInt: t = int64(); break;
        case JsonValue::Kind::kDouble: t = float64(); break;
        default: t = utf8();
      }
      auto it = types.find(key);
      if (it == types.end()) {
        order.push_back(key);
        types.emplace(key, t);
      } else if (it->second != t && !t.is_null()) {
        if (it->second.is_null()) {
          it->second = t;
        } else if (it->second.is_integer() && t.is_floating()) {
          it->second = float64();
        } else if (it->second.is_floating() && t.is_integer()) {
          // keep float64
        } else {
          it->second = utf8();
        }
      }
    }
  }
  std::vector<Field> fields;
  for (const auto& key : order) {
    DataType t = types[key];
    if (t.is_null()) t = utf8();
    fields.emplace_back(key, t, true);
  }
  if (fields.empty()) return Status::Invalid("json: no objects found in " + path);
  return std::make_shared<Schema>(std::move(fields));
}

Result<std::vector<RecordBatchPtr>> ReadFile(const std::string& path,
                                             const Options& options) {
  FUSION_ASSIGN_OR_RAISE(SchemaPtr schema, InferSchema(path, options));
  FUSION_ASSIGN_OR_RAISE(auto lines, ReadLines(path, /*limit=*/-1));
  std::vector<RecordBatchPtr> batches;
  size_t i = 0;
  while (i < lines.size()) {
    std::vector<std::unique_ptr<ArrayBuilder>> builders;
    for (const Field& f : schema->fields()) {
      FUSION_ASSIGN_OR_RAISE(auto b, MakeBuilder(f.type()));
      builders.push_back(std::move(b));
    }
    int64_t rows = 0;
    for (; i < lines.size() && rows < options.batch_rows; ++i, ++rows) {
      FUSION_ASSIGN_OR_RAISE(auto obj, ParseObject(lines[i]));
      for (int c = 0; c < schema->num_fields(); ++c) {
        const std::string& name = schema->field(c).name();
        const JsonValue* found = nullptr;
        for (const auto& [key, value] : obj) {
          if (key == name) {
            found = &value;
            break;
          }
        }
        if (found == nullptr || found->kind == JsonValue::Kind::kNull) {
          builders[c]->AppendNull();
          continue;
        }
        DataType t = schema->field(c).type();
        switch (t.id()) {
          case TypeId::kBool:
            if (found->kind == JsonValue::Kind::kBool) {
              static_cast<BooleanBuilder*>(builders[c].get())
                  ->Append(found->bool_value);
            } else {
              builders[c]->AppendNull();
            }
            break;
          case TypeId::kInt64:
            if (found->kind == JsonValue::Kind::kInt) {
              static_cast<NumericBuilder<int64_t>*>(builders[c].get())
                  ->Append(found->int_value);
            } else if (found->kind == JsonValue::Kind::kDouble &&
                       compute::FitsIn<int64_t>(found->double_value)) {
              // A double an int64 cannot hold reads as null, as CAST has it.
              static_cast<NumericBuilder<int64_t>*>(builders[c].get())
                  ->Append(static_cast<int64_t>(found->double_value));
            } else {
              builders[c]->AppendNull();
            }
            break;
          case TypeId::kFloat64:
            if (found->kind == JsonValue::Kind::kInt) {
              static_cast<Float64Builder*>(builders[c].get())
                  ->Append(static_cast<double>(found->int_value));
            } else if (found->kind == JsonValue::Kind::kDouble) {
              static_cast<Float64Builder*>(builders[c].get())
                  ->Append(found->double_value);
            } else {
              builders[c]->AppendNull();
            }
            break;
          case TypeId::kString: {
            std::string text;
            switch (found->kind) {
              case JsonValue::Kind::kString:
              case JsonValue::Kind::kRaw:
                text = found->text;
                break;
              case JsonValue::Kind::kInt:
                text = std::to_string(found->int_value);
                break;
              case JsonValue::Kind::kDouble:
                text = std::to_string(found->double_value);
                break;
              case JsonValue::Kind::kBool:
                text = found->bool_value ? "true" : "false";
                break;
              default:
                break;
            }
            static_cast<StringBuilder*>(builders[c].get())->Append(text);
            break;
          }
          default:
            builders[c]->AppendNull();
        }
      }
    }
    std::vector<ArrayPtr> columns;
    for (auto& b : builders) {
      FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
      columns.push_back(std::move(arr));
    }
    batches.push_back(std::make_shared<RecordBatch>(schema, rows, std::move(columns)));
  }
  return batches;
}

}  // namespace json
}  // namespace format
}  // namespace fusion
