#include "laar/spl/spl_parser.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "laar/common/strings.h"

namespace laar::spl {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokenKind {
  kIdentifier,
  kNumber,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kSemicolon,
  kComma,
  kEquals,
  kAt,
  kArrow,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  double number = 0.0;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
        continue;
      }
      if (c == '#') {  // line comment
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
        tokens.push_back(Token{TokenKind::kIdentifier,
                               std::string(text_.substr(start, pos_ - start)), 0.0,
                               line_});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && pos_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
                 (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
          ++pos_;
        }
        const std::string literal(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double value = std::strtod(literal.c_str(), &end);
        if (end == nullptr || *end != '\0') {
          return Error(StrFormat("invalid number '%s'", literal.c_str()));
        }
        Token token{TokenKind::kNumber, literal, value, line_};
        // Unit suffix (identifier glued to the number): "100ms", "5cycles".
        if (pos_ < text_.size() &&
            std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
          const size_t unit_start = pos_;
          while (pos_ < text_.size() &&
                 std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
          }
          token.text += std::string(text_.substr(unit_start, pos_ - unit_start));
        }
        tokens.push_back(std::move(token));
        continue;
      }
      switch (c) {
        case '{':
          tokens.push_back(Token{TokenKind::kLBrace, "{", 0.0, line_});
          break;
        case '}':
          tokens.push_back(Token{TokenKind::kRBrace, "}", 0.0, line_});
          break;
        case '[':
          tokens.push_back(Token{TokenKind::kLBracket, "[", 0.0, line_});
          break;
        case ']':
          tokens.push_back(Token{TokenKind::kRBracket, "]", 0.0, line_});
          break;
        case ';':
          tokens.push_back(Token{TokenKind::kSemicolon, ";", 0.0, line_});
          break;
        case ',':
          tokens.push_back(Token{TokenKind::kComma, ",", 0.0, line_});
          break;
        case '=':
          tokens.push_back(Token{TokenKind::kEquals, "=", 0.0, line_});
          break;
        case '@':
          tokens.push_back(Token{TokenKind::kAt, "@", 0.0, line_});
          break;
        case '-':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
            tokens.push_back(Token{TokenKind::kArrow, "->", 0.0, line_});
            ++pos_;
            break;
          }
          return Error("unexpected '-'");
        default:
          return Error(StrFormat("unexpected character '%c'", c));
      }
      ++pos_;
    }
    tokens.push_back(Token{TokenKind::kEnd, "", 0.0, line_});
    return tokens;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(StrFormat("SPL lex error at line %d: %s", line_,
                                             what.c_str()));
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
};

// ---------------------------------------------------------------------------
// Parser / elaborator
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<model::ApplicationDescriptor> Parse() {
    LAAR_RETURN_IF_ERROR(ExpectKeyword("application"));
    LAAR_ASSIGN_OR_RETURN(app_.name, ExpectIdentifier("application name"));
    LAAR_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    while (!AtKind(TokenKind::kRBrace)) {
      LAAR_ASSIGN_OR_RETURN(std::string keyword, ExpectIdentifier("declaration keyword"));
      if (keyword == "source") {
        LAAR_RETURN_IF_ERROR(ParseSource());
      } else if (keyword == "pe") {
        LAAR_RETURN_IF_ERROR(ParsePe());
      } else if (keyword == "sink") {
        LAAR_RETURN_IF_ERROR(ParseSink());
      } else if (keyword == "stream") {
        LAAR_RETURN_IF_ERROR(ParseStream());
      } else {
        return Error(StrFormat("unknown declaration '%s'", keyword.c_str()));
      }
    }
    LAAR_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "'}'"));
    LAAR_RETURN_IF_ERROR(Expect(TokenKind::kEnd, "end of input"));

    // Elaborate: register the collected rate sets, then validate.
    for (auto& [id, rate_set] : pending_rates_) {
      LAAR_RETURN_IF_ERROR(
          app_.input_space.AddSource(rate_set).WithContext("source '" + id + "'"));
    }
    LAAR_RETURN_IF_ERROR(app_.Validate());
    return std::move(app_);
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  bool AtKind(TokenKind kind) const { return Peek().kind == kind; }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("SPL parse error at line %d (near '%s'): %s", Peek().line,
                  Peek().text.c_str(), what.c_str()));
  }

  Status Expect(TokenKind kind, const char* what) {
    if (!AtKind(kind)) return Error(StrFormat("expected %s", what));
    ++pos_;
    return Status::OK();
  }

  Status ExpectKeyword(const char* keyword) {
    if (!AtKind(TokenKind::kIdentifier) || Peek().text != keyword) {
      return Error(StrFormat("expected keyword '%s'", keyword));
    }
    ++pos_;
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (!AtKind(TokenKind::kIdentifier)) return Error(StrFormat("expected %s", what));
    return tokens_[pos_++].text;
  }

  Result<Token> ExpectNumber(const char* what) {
    if (!AtKind(TokenKind::kNumber)) return Error(StrFormat("expected %s", what));
    return tokens_[pos_++];
  }

  /// A number that takes no unit: only `cost` reads one, so a unit glued to
  /// any other number is an error rather than dropped.
  Result<double> ExpectUnitlessNumber(const char* what) {
    if (AtKind(TokenKind::kNumber) && !UnitOf(Peek()).empty()) {
      return Error(StrFormat("%s takes no unit, got '%s'", what, UnitOf(Peek()).c_str()));
    }
    LAAR_ASSIGN_OR_RETURN(Token token, ExpectNumber(what));
    return token.number;
  }

  /// "100ms" tokenizes as number 100 with text "100ms": the unit is the run
  /// of letters after the numeric literal. A literal ends in a digit or a
  /// '.', so its exponent's 'e' ("1e3ms") never joins that run.
  static std::string UnitOf(const Token& token) {
    size_t unit_start = token.text.size();
    while (unit_start > 0 &&
           std::isalpha(static_cast<unsigned char>(token.text[unit_start - 1]))) {
      --unit_start;
    }
    return token.text.substr(unit_start);
  }

  Result<model::ComponentId> Declare(const std::string& id, model::ComponentKind kind) {
    if (components_.count(id) != 0) {
      return Error(StrFormat("'%s' is already declared", id.c_str()));
    }
    model::ComponentId component = model::kInvalidComponent;
    switch (kind) {
      case model::ComponentKind::kSource:
        component = app_.graph.AddSource(id);
        break;
      case model::ComponentKind::kPe:
        component = app_.graph.AddPe(id);
        break;
      case model::ComponentKind::kSink:
        component = app_.graph.AddSink(id);
        break;
    }
    components_[id] = component;
    return component;
  }

  Status ParseSource() {
    LAAR_ASSIGN_OR_RETURN(std::string id, ExpectIdentifier("source name"));
    LAAR_ASSIGN_OR_RETURN(model::ComponentId component,
                          Declare(id, model::ComponentKind::kSource));
    LAAR_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    model::SourceRateSet rates;
    rates.source = component;
    while (!AtKind(TokenKind::kRBrace)) {
      LAAR_RETURN_IF_ERROR(ExpectKeyword("rate"));
      LAAR_ASSIGN_OR_RETURN(std::string label, ExpectIdentifier("rate label"));
      LAAR_RETURN_IF_ERROR(Expect(TokenKind::kEquals, "'='"));
      LAAR_ASSIGN_OR_RETURN(double rate, ExpectUnitlessNumber("tuple rate"));
      LAAR_RETURN_IF_ERROR(Expect(TokenKind::kAt, "'@'"));
      LAAR_ASSIGN_OR_RETURN(double probability, ExpectUnitlessNumber("probability"));
      LAAR_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      rates.labels.push_back(std::move(label));
      rates.rates.push_back(rate);
      rates.probabilities.push_back(probability);
    }
    LAAR_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "'}'"));
    if (rates.rates.empty()) {
      return Error(StrFormat("source '%s' declares no rates", id.c_str()));
    }
    pending_rates_.emplace_back(id, std::move(rates));
    return Status::OK();
  }

  Status ParsePe() {
    LAAR_ASSIGN_OR_RETURN(std::string id, ExpectIdentifier("pe name"));
    LAAR_RETURN_IF_ERROR(Declare(id, model::ComponentKind::kPe).status());
    return Expect(TokenKind::kSemicolon, "';'");
  }

  Status ParseSink() {
    LAAR_ASSIGN_OR_RETURN(std::string id, ExpectIdentifier("sink name"));
    LAAR_RETURN_IF_ERROR(Declare(id, model::ComponentKind::kSink).status());
    return Expect(TokenKind::kSemicolon, "';'");
  }

  Result<double> ParseCost(const Token& token) {
    const std::string unit = UnitOf(token);
    constexpr double kReferenceHz = 1e9;  // 1 GHz reference core
    if (unit.empty() || unit == "cycles") return token.number;
    if (unit == "ms") return token.number * 1e-3 * kReferenceHz;
    if (unit == "us") return token.number * 1e-6 * kReferenceHz;
    if (unit == "s") return token.number * kReferenceHz;
    return Error(StrFormat("unknown cost unit '%s'", unit.c_str()));
  }

  Status ParseStream() {
    LAAR_ASSIGN_OR_RETURN(std::string from_id, ExpectIdentifier("stream origin"));
    LAAR_RETURN_IF_ERROR(Expect(TokenKind::kArrow, "'->'"));
    LAAR_ASSIGN_OR_RETURN(std::string to_id, ExpectIdentifier("stream destination"));
    auto from_it = components_.find(from_id);
    auto to_it = components_.find(to_id);
    if (from_it == components_.end()) {
      return Error(StrFormat("'%s' is not declared", from_id.c_str()));
    }
    if (to_it == components_.end()) {
      return Error(StrFormat("'%s' is not declared", to_id.c_str()));
    }

    double selectivity = 1.0;
    double cost = 0.0;
    if (AtKind(TokenKind::kLBracket)) {
      ++pos_;
      while (!AtKind(TokenKind::kRBracket)) {
        LAAR_ASSIGN_OR_RETURN(std::string attribute,
                              ExpectIdentifier("edge attribute name"));
        LAAR_RETURN_IF_ERROR(Expect(TokenKind::kEquals, "'='"));
        if (attribute == "selectivity") {
          LAAR_ASSIGN_OR_RETURN(selectivity, ExpectUnitlessNumber("selectivity"));
        } else if (attribute == "cost") {
          LAAR_ASSIGN_OR_RETURN(Token value, ExpectNumber("cost"));
          LAAR_ASSIGN_OR_RETURN(cost, ParseCost(value));
        } else {
          return Error(StrFormat("unknown edge attribute '%s'", attribute.c_str()));
        }
        if (AtKind(TokenKind::kComma)) ++pos_;
      }
      LAAR_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
    }
    LAAR_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
    return app_.graph
        .AddEdge(from_it->second, to_it->second, selectivity, cost)
        .WithContext(StrFormat("stream %s -> %s", from_id.c_str(), to_id.c_str()));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  model::ApplicationDescriptor app_;
  std::map<std::string, model::ComponentId> components_;
  std::vector<std::pair<std::string, model::SourceRateSet>> pending_rates_;
};

}  // namespace

Result<model::ApplicationDescriptor> ParseApplication(std::string_view text) {
  LAAR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  return Parser(std::move(tokens)).Parse();
}

Result<model::ApplicationDescriptor> ParseApplicationFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<model::ApplicationDescriptor> parsed = ParseApplication(buffer.str());
  if (!parsed.ok()) return parsed.status().WithContext(path);
  return parsed;
}

}  // namespace laar::spl
