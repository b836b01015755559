#include "multiverse/config.hpp"

#include <charconv>
#include <limits>

#include "support/faultplan.hpp"
#include "support/strings.hpp"

namespace mv::multiverse {

namespace {

// Parse all of `tok` as a number in [min, max]. Trailing junk ("8abc"),
// overflow and NaN are rejected, never truncated.
template <typename T>
bool parse_number(std::string_view tok, T min, T max, T* out) {
  T value{};
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc() || end != tok.data() + tok.size() ||
      !(value >= min && value <= max)) {
    return false;
  }
  *out = value;
  return true;
}

// `option hybridize on,promote_after=8,demote_on_fail=2,threshold=4000,
// window=200000000` — leading on/off, then key=value knobs in any order.
Result<HybridizeOptions> parse_hybridize_spec(std::string_view text) {
  constexpr auto kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  HybridizeOptions opts;
  bool saw_mode = false;
  for (const std::string& raw : split(text, ',')) {
    const std::string_view entry = trim(raw);
    if (entry.empty()) continue;
    if (entry == "on" || entry == "off") {
      opts.enabled = entry == "on";
      saw_mode = true;
      continue;
    }
    const auto parts = split(entry, '=');
    if (parts.size() != 2) {
      return err(Err::kParse,
                 strfmt("hybridize spec entry '%.*s' wants key=value",
                        static_cast<int>(entry.size()), entry.data()));
    }
    const std::string& key = parts[0];
    const std::string& value = parts[1];
    bool ok = false;
    if (key == "promote_after") {
      ok = parse_number<std::uint64_t>(value, 1, kMaxU64, &opts.promote_after);
    } else if (key == "demote_on_fail") {
      ok = parse_number(value, 1, std::numeric_limits<int>::max(),
                        &opts.demote_on_fail);
    } else if (key == "threshold") {
      ok = parse_number(value, 0.0, std::numeric_limits<double>::infinity(),
                        &opts.threshold_cycles);
    } else if (key == "window") {
      ok = parse_number<std::uint64_t>(value, 1, kMaxU64, &opts.window_cycles);
    } else {
      return err(Err::kParse,
                 strfmt("hybridize spec: unknown key '%s'", key.c_str()));
    }
    if (!ok) {
      return err(Err::kParse,
                 strfmt("hybridize spec: bad value for '%s'", key.c_str()));
    }
  }
  if (!saw_mode) {
    return err(Err::kParse, "hybridize spec wants leading on or off");
  }
  return opts;
}

// `option <key> <n>` for an integer option with the given minimum; options
// whose minimum is 0 also accept `off`.
template <typename T>
Result<T> int_option(const std::vector<std::string>& tokens, int lineno,
                     T min) {
  T value{};
  if ((min == 0 && tokens[2] == "off") ||
      parse_number(tokens[2], min, std::numeric_limits<T>::max(), &value)) {
    return value;
  }
  return err(Err::kParse,
             strfmt("line %d: %s wants an integer >= %lld%s", lineno,
                    tokens[1].c_str(), static_cast<long long>(min),
                    min == 0 ? " (0 or 'off' disables)" : ""));
}

}  // namespace

Result<OverrideConfig> parse_override_config(const std::string& text) {
  OverrideConfig config;
  int lineno = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++lineno;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;

    std::vector<std::string> tokens;
    for (const std::string& tok : split(line, ' ')) {
      if (!std::string_view(trim(tok)).empty()) tokens.emplace_back(trim(tok));
    }
    if (tokens.empty()) continue;

    if (tokens[0] == "override") {
      if (tokens.size() != 3) {
        return err(Err::kParse,
                   strfmt("line %d: override takes 2 operands", lineno));
      }
      config.overrides.push_back({tokens[1], tokens[2]});
    } else if (tokens[0] == "option") {
      if (tokens.size() != 3) {
        return err(Err::kParse, strfmt("line %d: option takes 2 operands",
                                       lineno));
      }
      const bool value = tokens[2] == "on" || tokens[2] == "true" ||
                         tokens[2] == "1";
      if (tokens[1] == "merge_address_space") {
        config.options.merge_address_space = value;
      } else if (tokens[1] == "symbol_cache") {
        config.options.symbol_cache = value;
      } else if (tokens[1] == "sync_channel") {
        config.options.sync_channel = value;
      } else if (tokens[1] == "ring_depth") {
        MV_ASSIGN_OR_RETURN(config.options.ring_depth,
                            int_option(tokens, lineno, 1));
      } else if (tokens[1] == "service_workers") {
        MV_ASSIGN_OR_RETURN(config.options.service_workers,
                            int_option(tokens, lineno, 1));
      } else if (tokens[1] == "tenants") {
        MV_ASSIGN_OR_RETURN(config.options.tenants,
                            int_option(tokens, lineno, 1));
      } else if (tokens[1] == "watchdog") {
        MV_ASSIGN_OR_RETURN(config.options.watchdog,
                            int_option(tokens, lineno, 0));
      } else if (tokens[1] == "spin_cycles") {
        MV_ASSIGN_OR_RETURN(config.options.spin_cycles,
                            int_option(tokens, lineno, 0LL));
      } else if (tokens[1] == "fault") {
        // Validate eagerly so a typo'd fault spec fails at parse time, not
        // when the runtime builds the plan.
        auto plan = FaultPlan::parse(tokens[2]);
        if (!plan.is_ok()) {
          return err(Err::kParse,
                     strfmt("line %d: %s", lineno,
                            plan.status().detail().c_str()));
        }
        config.options.fault_spec = tokens[2];
      } else if (tokens[1] == "hybridize") {
        auto opts = parse_hybridize_spec(tokens[2]);
        if (!opts.is_ok()) {
          return err(Err::kParse,
                     strfmt("line %d: %s", lineno,
                            opts.status().detail().c_str()));
        }
        config.options.hybridize = opts.value();
      } else {
        return err(Err::kParse,
                   strfmt("line %d: unknown option '%s'", lineno,
                          tokens[1].c_str()));
      }
    } else {
      return err(Err::kParse, strfmt("line %d: unknown directive '%s'",
                                     lineno, tokens[0].c_str()));
    }
  }
  return config;
}

const std::string& default_override_config() {
  static const std::string kDefault =
      "# Multiverse default overrides: pthread calls map to AeroKernel\n"
      "# threads with matching semantics.\n"
      "override pthread_create nk_thread_create\n"
      "override pthread_join nk_thread_join\n"
      "override pthread_exit nk_thread_exit\n";
  return kDefault;
}

}  // namespace mv::multiverse
