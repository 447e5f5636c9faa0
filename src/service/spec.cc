#include "service/spec.hh"

#include <cctype>
#include <cmath>

#include "base/sim_error.hh"
#include "host/platforms.hh"
#include "workloads/workload.hh"

namespace g5p::service
{

namespace
{

/** Where spec errors claim to come from. */
const char *const specObject = "service.spec";

/**
 * Recursive-descent JSON parser. Throws ConfigError with a byte
 * offset; depth-limited so a malicious spec cannot blow the stack.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue value = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        g5p_throw(ConfigError, specObject, 0,
                  "JSON error at offset %zu: %s", pos_, why.c_str());
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    bool
    consume(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue(unsigned depth)
    {
        if (depth > maxDepth_)
            fail("nesting too deep");
        skipWs();
        char c = peek();
        JsonValue value;
        if (c == '{') {
            return parseObject(depth);
        } else if (c == '[') {
            return parseArray(depth);
        } else if (c == '"') {
            value.kind = JsonValue::Kind::String;
            value.string = parseString();
            return value;
        } else if (consume("true")) {
            value.kind = JsonValue::Kind::Bool;
            value.boolean = true;
            return value;
        } else if (consume("false")) {
            value.kind = JsonValue::Kind::Bool;
            value.boolean = false;
            return value;
        } else if (consume("null")) {
            return value;
        }
        return parseNumber();
    }

    JsonValue
    parseObject(unsigned depth)
    {
        JsonValue value;
        value.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            value.object[key] = parseValue(depth + 1);
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray(unsigned depth)
    {
        JsonValue value;
        value.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        while (true) {
            value.array.push_back(parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= h - '0';
                    else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                    else fail("bad \\u escape digit");
                }
                // Encode as UTF-8 (BMP only; specs are ASCII anyway).
                if (code < 0x80) {
                    out += (char)code;
                } else if (code < 0x800) {
                    out += (char)(0xC0 | (code >> 6));
                    out += (char)(0x80 | (code & 0x3F));
                } else {
                    out += (char)(0xE0 | (code >> 12));
                    out += (char)(0x80 | ((code >> 6) & 0x3F));
                    out += (char)(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail(std::string("unknown escape '\\") + e + "'");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit((unsigned char)text_[pos_]) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        JsonValue value;
        value.kind = JsonValue::Kind::Number;
        try {
            value.number = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("malformed number '" +
                 text_.substr(start, pos_ - start) + "'");
        }
        return value;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    static constexpr unsigned maxDepth_ = 64;
};

/** Typed field access with spec-level error messages. */
double
asNumber(const JsonValue &v, const std::string &key)
{
    if (v.kind != JsonValue::Kind::Number)
        g5p_throw(ConfigError, specObject, 0,
                  "spec field '%s' must be a number", key.c_str());
    return v.number;
}

std::uint64_t
asU64(const JsonValue &v, const std::string &key)
{
    double d = asNumber(v, key);
    if (d < 0 || d != std::floor(d))
        g5p_throw(ConfigError, specObject, 0,
                  "spec field '%s' must be a non-negative integer",
                  key.c_str());
    return (std::uint64_t)d;
}

bool
asBool(const JsonValue &v, const std::string &key)
{
    if (v.kind != JsonValue::Kind::Bool)
        g5p_throw(ConfigError, specObject, 0,
                  "spec field '%s' must be a boolean", key.c_str());
    return v.boolean;
}

std::string
asString(const JsonValue &v, const std::string &key)
{
    if (v.kind != JsonValue::Kind::String)
        g5p_throw(ConfigError, specObject, 0,
                  "spec field '%s' must be a string", key.c_str());
    return v.string;
}

/** A non-empty array axis of T, via per-element converter. */
template <typename T, typename Conv>
std::vector<T>
asAxis(const JsonValue &v, const std::string &key, Conv conv)
{
    if (v.kind != JsonValue::Kind::Array)
        g5p_throw(ConfigError, specObject, 0,
                  "spec field '%s' must be an array", key.c_str());
    if (v.array.empty())
        g5p_throw(ConfigError, specObject, 0,
                  "spec axis '%s' must not be empty", key.c_str());
    std::vector<T> out;
    out.reserve(v.array.size());
    for (const JsonValue &e : v.array)
        out.push_back(conv(e, key));
    return out;
}

} // namespace

const JsonValue &
JsonValue::get(const std::string &key) const
{
    static const JsonValue nullValue;
    auto it = object.find(key);
    return it == object.end() ? nullValue : it->second;
}

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

os::CpuModel
cpuModelFromName(const std::string &name)
{
    for (os::CpuModel model : os::allCpuModels)
        if (name == os::cpuModelName(model))
            return model;
    g5p_throw(ConfigError, specObject, 0,
              "unknown CPU model '%s' (expected Atomic, Timing, "
              "Minor, or O3)", name.c_str());
}

host::HostPlatformConfig
platformByName(const std::string &name)
{
    for (const auto &cfg : {host::xeonConfig(), host::m1ProConfig(),
                            host::m1UltraConfig(),
                            host::firesimConfig()})
        if (name == cfg.name)
            return cfg;
    g5p_throw(ConfigError, specObject, 0,
              "unknown platform '%s' (expected Intel_Xeon, M1_Pro, "
              "M1_Ultra, or FireSim)", name.c_str());
}

SweepSpec
parseSweepSpec(const std::string &json)
{
    JsonValue root = parseJson(json);
    if (root.kind != JsonValue::Kind::Object)
        g5p_throw(ConfigError, specObject, 0,
                  "sweep spec must be a JSON object");

    SweepSpec spec;
    for (const auto &[key, value] : root.object) {
        if (key == "name") {
            spec.name = asString(value, key);
        } else if (key == "workloads") {
            spec.workloads = asAxis<std::string>(value, key, asString);
        } else if (key == "cpu_models") {
            spec.cpuModels = asAxis<std::string>(value, key, asString);
        } else if (key == "cores") {
            spec.cores = asAxis<unsigned>(
                value, key, [](const JsonValue &v,
                               const std::string &k) {
                    return (unsigned)asU64(v, k);
                });
        } else if (key == "platforms") {
            spec.platforms = asAxis<std::string>(value, key, asString);
        } else if (key == "l2_kb") {
            spec.l2KB = asAxis<unsigned>(
                value, key, [](const JsonValue &v,
                               const std::string &k) {
                    return (unsigned)asU64(v, k);
                });
        } else if (key == "dram_gb_s") {
            spec.dramGBs = asAxis<double>(value, key, asNumber);
        } else if (key == "workload_scale") {
            spec.workloadScale = asNumber(value, key);
        } else if (key == "max_guest_insts") {
            spec.maxGuestInsts = asU64(value, key);
        } else if (key == "seed") {
            spec.seed = asU64(value, key);
        } else if (key == "resume") {
            spec.resume = asBool(value, key);
        } else if (key == "priority") {
            spec.priority = (int)asNumber(value, key);
        } else if (key == "wall_cap_seconds") {
            spec.wallCapSeconds = asNumber(value, key);
        } else if (key == "max_attempts") {
            spec.maxAttempts = (unsigned)asU64(value, key);
        } else if (key == "chaos") {
            if (value.kind != JsonValue::Kind::Object)
                g5p_throw(ConfigError, specObject, 0,
                          "spec field 'chaos' must be an object");
            for (const auto &[ckey, cvalue] : value.object) {
                if (ckey == "fail_first_attempts")
                    spec.failFirstAttempts =
                        (unsigned)asU64(cvalue, ckey);
                else
                    g5p_throw(ConfigError, specObject, 0,
                              "unknown chaos field '%s'",
                              ckey.c_str());
            }
        } else {
            g5p_throw(ConfigError, specObject, 0,
                      "unknown sweep-spec field '%s'", key.c_str());
        }
    }

    // Fail the whole spec up front, not job-by-job at run time.
    for (const std::string &model : spec.cpuModels)
        (void)cpuModelFromName(model);
    for (const std::string &platform : spec.platforms)
        (void)platformByName(platform);
    for (unsigned n : spec.cores)
        if (n == 0)
            g5p_throw(ConfigError, specObject, 0,
                      "core count 0 is not a machine");
    if (spec.workloadScale <= 0)
        g5p_throw(ConfigError, specObject, 0,
                  "workload_scale must be positive");
    return spec;
}

std::vector<JobSpec>
expandSweep(const SweepSpec &sweep)
{
    std::vector<JobSpec> jobs;
    for (const std::string &workload : sweep.workloads)
        for (const std::string &model : sweep.cpuModels)
            for (unsigned cores : sweep.cores)
                for (const std::string &platform : sweep.platforms)
                    for (unsigned l2_kb : sweep.l2KB)
                        for (double dram : sweep.dramGBs) {
                            JobSpec job;
                            job.workload = workload;
                            job.cpuModel = cpuModelFromName(model);
                            job.cores = cores;
                            job.platform = platform;
                            job.l2KB = l2_kb;
                            job.dramGBs = dram;
                            job.workloadScale = sweep.workloadScale;
                            job.maxGuestInsts = sweep.maxGuestInsts;
                            job.seed = sweep.seed;
                            job.resume = sweep.resume;
                            job.priority = sweep.priority;
                            job.wallCapSeconds = sweep.wallCapSeconds;
                            job.maxAttempts = sweep.maxAttempts;
                            job.failFirstAttempts =
                                sweep.failFirstAttempts;
                            jobs.push_back(std::move(job));
                        }
    return jobs;
}

std::string
jobKey(const JobSpec &job)
{
    // The job kind is the one identity field outside RunConfig.
    return core::runKey(toRunConfig(job)) +
           (job.resume ? " resume=1" : " resume=0");
}

std::uint64_t
jobDigest(const JobSpec &job)
{
    return sim::checkpointDigest(jobKey(job));
}

core::RunConfig
toRunConfig(const JobSpec &job)
{
    // Registry::create is fatal on unknown names; a daemon must turn
    // that into a poisonable ConfigError instead.
    auto names = workloads::Registry::instance().names();
    bool known = false;
    for (const std::string &name : names)
        known = known || name == job.workload;
    if (!known)
        g5p_throw(ConfigError, specObject, 0,
                  "unknown workload '%s'", job.workload.c_str());

    core::RunConfig config;
    config.workload = job.workload;
    config.cpuModel = job.cpuModel;
    config.guestCpus = job.cores;
    config.workloadScale = job.workloadScale;
    config.maxGuestInsts = job.maxGuestInsts;
    config.seed = job.seed;
    config.platform = platformByName(job.platform);
    if (job.l2KB > 0) {
        host::HostCacheGeometry &l2 = config.platform.l2;
        unsigned line = config.platform.lineBytes;
        l2.sizeBytes = (std::uint64_t)job.l2KB * 1024;
        // Keep the base associativity where the size allows full
        // sets; shrink it for tiny L2s so numSets() stays >= 1.
        while (l2.assoc > 1 &&
               l2.sizeBytes < (std::uint64_t)l2.assoc * line)
            l2.assoc /= 2;
        if (l2.numSets(line) == 0)
            g5p_throw(ConfigError, specObject, 0,
                      "l2_kb=%u is below one cache line", job.l2KB);
    }
    if (job.dramGBs > 0)
        config.platform.memBwGBs = job.dramGBs;
    return config;
}

void
serializeJob(const JobSpec &job, sim::CheckpointOut &cp)
{
    cp.param("workload", job.workload);
    cp.param("cpuModel",
             std::string(os::cpuModelName(job.cpuModel)));
    cp.param("cores", job.cores);
    cp.param("platform", job.platform);
    cp.param("l2KB", job.l2KB);
    cp.param("dramGBs", job.dramGBs);
    cp.param("workloadScale", job.workloadScale);
    cp.param("maxGuestInsts", job.maxGuestInsts);
    cp.param("seed", job.seed);
    cp.param("resume", (unsigned)job.resume);
    cp.param("priority", job.priority);
    cp.param("wallCapSeconds", job.wallCapSeconds);
    cp.param("maxAttempts", job.maxAttempts);
    cp.param("failFirstAttempts", job.failFirstAttempts);
}

JobSpec
unserializeJob(const sim::CheckpointIn &cp)
{
    JobSpec job;
    std::string model;
    unsigned resume = 0;
    cp.param("workload", job.workload);
    cp.param("cpuModel", model);
    job.cpuModel = cpuModelFromName(model);
    cp.param("cores", job.cores);
    cp.param("platform", job.platform);
    cp.param("l2KB", job.l2KB);
    cp.param("dramGBs", job.dramGBs);
    cp.param("workloadScale", job.workloadScale);
    cp.param("maxGuestInsts", job.maxGuestInsts);
    cp.param("seed", job.seed);
    cp.param("resume", resume);
    job.resume = resume != 0;
    cp.param("priority", job.priority);
    cp.param("wallCapSeconds", job.wallCapSeconds);
    cp.param("maxAttempts", job.maxAttempts);
    cp.param("failFirstAttempts", job.failFirstAttempts);
    return job;
}

} // namespace g5p::service
