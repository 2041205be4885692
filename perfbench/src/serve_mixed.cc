/**
 * serve-mixed: an in-process serve::Server under a mixed JSON-lines
 * traffic of evaluate (90%), small-space sweep (6%), profile uploads
 * (2%) and server-side profile ops (2%). Queries cover more profiles
 * than the LRU holds, with Zipf popularity, so some miss; a client that
 * gets "unknown profile" re-uploads the profile and retries, and that
 * logical request counts once, its latency including the upload.
 *
 * Two phases, alternating in half-second slices: an open loop, Poisson
 * arrivals at fixed fractions of the mix's measured capacity over two
 * connections with latency timed from each request's due time, and a
 * saturation phase, a closed loop at nproc connections with
 * kPipelineDepth requests in flight each, reporting goodput: requests
 * per second that succeeded within their op's latency limit.
 *
 * Where the numbers come from. The mix models a design-space query
 * service: mostly point queries, some small sweeps, a few percent
 * writes. Zipf(1.1) is a common skew for request popularity; with 12
 * profiles against 8 LRU slots the server's LRU hit fraction is about
 * 0.85, so the miss-and-re-upload path runs without dominating.
 */
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "model/eval_cache.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "serve/server.hh"
#include "uarch/design_space.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace pb {

namespace {

using namespace mipp;

constexpr size_t kProfiles = 12;
constexpr size_t kLruSlots = 8;
constexpr size_t kProfileUops = 50000;
constexpr size_t kServerProfileUops = 20000;
constexpr double kZipfS = 1.1;
/**
 * Closed-loop capacity of this mix, measured on a 4-vCPU x86-64 VM with
 * the load generator in the same process: goodput about 7000 req/s at
 * nproc connections x 2 in flight (median of ten seeds 6900; single
 * runs 6100-10500, and down to 2600 in slow stretches of the host).
 * Deeper pipelines only add queueing: 7300 at 4 in flight, 4700 at 8.
 */
constexpr double kCapacityRps = 7000;
/**
 * Open-loop offered loads (Poisson), as fractions of kCapacityRps. At
 * 75% the evaluate p99 passed its 5 ms limit (11-18 ms) and the server
 * shed requests; at 50% it shed in one run of three; at 35% it shed in
 * one run of ten, when a slow stretch of the host halved the capacity.
 * A shed request fails the run, so the highest load run is 20%.
 */
constexpr double kLoads[] = {0.05, 0.1, 0.2};
constexpr size_t kNumLoads = std::size(kLoads);
/** The load whose evaluate p50 is the gated latency_p50_ms. */
constexpr size_t kGatedLoad = 2;
constexpr unsigned kOpenConns = 2;
/** Logical requests in flight per closed-loop connection: two, so an
 *  executor finds the next request queued instead of waiting for a
 *  client wake-up, while queueing stays far below the latency limits. */
constexpr unsigned kPipelineDepth = 2;
/** Every k-th successful evaluate is re-checked in-process. */
constexpr uint64_t kCheckEvery = 16;

enum class Kind { Evaluate, Sweep, Upload, Profile };

/** Per-op latency limit for goodput, ms. */
double
limitMs(Kind k)
{
    switch (k) {
    case Kind::Evaluate:
        return 5;
    case Kind::Sweep:
        return 50;
    default:
        return 250;
    }
}

/** A design point of the request mix: its wire form and the CoreConfig
 *  the server's config parser builds from it. */
struct ConfigPick {
    std::string json;
    CoreConfig cfg;
};

struct Fixture {
    std::vector<Profile> profiles;      // as parsed from their text
    std::vector<std::string> quoted;    // json::quote(profile text)
    std::vector<ConfigPick> configs;
    std::vector<double> zipfCdf;
    std::vector<std::string> serverWorkloads;
};

Fixture
makeFixture(const Args &args)
{
    Fixture fx;
    std::vector<WorkloadSpec> suite = workloadSuite();
    for (size_t i = 0; i < kProfiles; ++i) {
        WorkloadSpec spec = suite[i];
        spec.seed = mixSeed(spec.seed, args.seed);
        Trace t = generateWorkload(spec, kProfileUops);
        std::ostringstream os;
        writeProfile(profileTrace(t, {.name = spec.name}), os);
        Profile p;
        if (!parseProfile(os.str(), p).isOk())
            throw std::runtime_error("profile text does not parse");
        fx.profiles.push_back(std::move(p));
        fx.quoted.push_back(json::quote(os.str()));
    }
    for (size_t i = kProfiles; i < kProfiles + 4; ++i)
        fx.serverWorkloads.push_back(suite[i].name);

    std::mt19937_64 rng(mixSeed(11, args.seed));
    const uint32_t widths[] = {2, 3, 4, 6, 8};
    const uint32_t robs[] = {64, 96, 128, 192, 256};
    const uint32_t l1s[] = {16, 32, 64};
    const uint32_t l2s[] = {128, 256, 512, 1024};
    const uint32_t l3s[] = {2, 4, 8, 16, 32};
    const double freqs[] = {1.6, 2.0, 2.66, 3.2};
    for (int i = 0; i < 64; ++i) {
        uint32_t w = widths[rng() % 5], rob = robs[rng() % 5];
        uint32_t l1 = l1s[rng() % 3], l2 = l2s[rng() % 4];
        uint32_t l3 = l3s[rng() % 5];
        double f = freqs[rng() % 4];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "{\"width\":%u,\"rob\":%u,\"l1d_kb\":%u,\"l2_kb\":%u,"
                      "\"l3_mb\":%u,\"freq_ghz\":%g}",
                      w, rob, l1, l2, l3, f);
        // Mirrors the server's config parsing, field for field.
        CoreConfig c = CoreConfig::nehalemReference();
        c.setWidth(w);
        scaleBackEnd(c, rob);
        c.l1d.sizeBytes = l1 * 1024;
        c.l2.sizeBytes = l2 * 1024;
        c.l3.sizeBytes = l3 * 1024 * 1024;
        c.freqGHz = f;
        scaleCacheLatencies(c);
        fx.configs.push_back({buf, c});
    }

    double sum = 0;
    for (size_t r = 0; r < kProfiles; ++r)
        fx.zipfCdf.push_back(sum += 1.0 / std::pow(r + 1.0, kZipfS));
    for (double &c : fx.zipfCdf)
        c /= sum;
    return fx;
}

/** One logical request of the mix. */
struct Request {
    Kind kind = Kind::Evaluate;
    size_t profile = 0;
    size_t config = 0;
    size_t serverSlot = 0;
};

class Mix
{
  public:
    Mix(const Fixture &fx, uint64_t seed) : fx_(fx), rng_(seed) {}

    Request
    next()
    {
        Request r;
        double u = uni_(rng_);
        r.kind = u < 0.90   ? Kind::Evaluate
                 : u < 0.96 ? Kind::Sweep
                 : u < 0.98 ? Kind::Upload
                            : Kind::Profile;
        double z = uni_(rng_);
        while (r.profile + 1 < kProfiles && fx_.zipfCdf[r.profile] < z)
            ++r.profile;
        r.config = rng_() % fx_.configs.size();
        r.serverSlot = rng_() % fx_.serverWorkloads.size();
        return r;
    }

    /** Gap to the next Poisson arrival at @p rps, seconds. */
    double gap(double rps) { return -std::log(1.0 - uni_(rng_)) / rps; }

  private:
    const Fixture &fx_;
    std::mt19937_64 rng_;
    std::uniform_real_distribution<double> uni_{0.0, 1.0};
};

std::string
profileName(size_t i)
{
    return "p" + std::to_string(i);
}

std::string
uploadLine(const Fixture &fx, size_t profile, uint64_t id)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"op\":\"load-profile\",\"name\":\"" + profileName(profile) +
           "\",\"data\":" + fx.quoted[profile] + "}";
}

std::string
requestLine(const Fixture &fx, const Request &r, uint64_t id)
{
    std::string head = "{\"id\":" + std::to_string(id) + ",\"op\":";
    switch (r.kind) {
    case Kind::Evaluate:
        return head + "\"evaluate\",\"profile\":\"" + profileName(r.profile) +
               "\",\"config\":" + fx.configs[r.config].json + "}";
    case Kind::Sweep:
        return head + "\"sweep\",\"space\":\"small\",\"profile\":\"" +
               profileName(r.profile) + "\"}";
    case Kind::Upload:
        return uploadLine(fx, r.profile, id);
    case Kind::Profile:
        return head + "\"profile\",\"workload\":\"" +
               fx.serverWorkloads[r.serverSlot] + "\",\"uops\":" +
               std::to_string(kServerProfileUops) + ",\"name\":\"srv" +
               std::to_string(r.serverSlot) + "\"}";
    }
    return {};
}

/** Blocking JSON-lines connection: one reader thread, one writer thread. */
class Conn
{
  public:
    Conn() = default;
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool
    connect(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        return ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    bool
    send(std::string line)
    {
        line += '\n';
        for (size_t off = 0; off < line.size();) {
            ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Stop both directions; a blocked send() returns. */
    void shutdown() { ::shutdown(fd_, SHUT_RDWR); }
    /** Whether the peer closed the connection. */
    bool closed() const { return closed_; }

    /** Next response line; false on close or after @p timeoutMs idle. */
    bool
    recv(std::string &line, int timeoutMs)
    {
        size_t pos;
        while ((pos = buf_.find('\n')) == std::string::npos) {
            pollfd p{fd_, POLLIN, 0};
            int rc = ::poll(&p, 1, timeoutMs);
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0)
                return false;
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                closed_ = true;
                return false;
            }
            buf_.append(chunk, static_cast<size_t>(n));
        }
        line = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return true;
    }

  private:
    int fd_ = -1;
    bool closed_ = false;
    std::string buf_;
};

/** Outcome of one response line. */
enum class Reply { Ok, UnknownProfile, Failed };

Reply
classify(const std::string &line, json::Value &doc)
{
    if (!json::parse(line, doc).isOk())
        return Reply::Failed;
    if (doc.boolOr("ok", false))
        return Reply::Ok;
    if (doc.stringOr("error", "").rfind("unknown profile", 0) == 0)
        return Reply::UnknownProfile;
    return Reply::Failed;
}

/** A sampled evaluate answer, re-checked in-process after the phases. */
struct EvalSample {
    size_t profile, config;
    double cpi;
};

/**
 * Everything one phase records (merged across its threads). A failed
 * request is either an error (a reply that does not parse or is not ok
 * for another reason than an LRU miss, a broken connection, a reply
 * that never came) or one that still missed the LRU after kMaxUploads
 * re-uploads, which heavy eviction can cause without any defect.
 */
struct PhaseStats {
    uint64_t sent = 0, ok = 0, failed = 0, errors = 0, withinLimit = 0;
    uint64_t reuploads = 0;
    std::vector<double> latMs[4];
    std::vector<double> lateMs;
    std::vector<EvalSample> samples;
    std::vector<std::string> sampleLines;
    double seconds = 0;

    void
    merge(const PhaseStats &o)
    {
        sent += o.sent;
        ok += o.ok;
        failed += o.failed;
        errors += o.errors;
        withinLimit += o.withinLimit;
        reuploads += o.reuploads;
        for (int k = 0; k < 4; ++k)
            latMs[k].insert(latMs[k].end(), o.latMs[k].begin(),
                            o.latMs[k].end());
        lateMs.insert(lateMs.end(), o.lateMs.begin(), o.lateMs.end());
        samples.insert(samples.end(), o.samples.begin(), o.samples.end());
        sampleLines.insert(sampleLines.end(), o.sampleLines.begin(),
                           o.sampleLines.end());
    }

    void
    finish(const Request &r, Reply rep, double ms, const json::Value &doc,
           const std::string &line)
    {
        if (rep != Reply::Ok) {
            ++failed;
            errors += rep == Reply::Failed;
            return;
        }
        ++ok;
        size_t k = static_cast<size_t>(r.kind);
        latMs[k].push_back(ms);
        if (ms <= limitMs(r.kind))
            ++withinLimit;
        if (r.kind == Kind::Evaluate && latMs[k].size() % kCheckEvery == 1) {
            samples.push_back({r.profile, r.config, doc.numberOr("cpi", -1)});
            sampleLines.push_back(line);
        }
    }
};

constexpr int kReplyTimeoutMs = 5000;
constexpr int kMaxUploads = 5;

/** A logical request in flight: when its clock started (its due time in
 *  the open loop, its first send in the closed loop) and its re-upload
 *  state. */
struct InFlight {
    Request req;
    Clock::time_point start;
    int uploads = 0;
    bool uploading = false;
};

/** The logical requests in flight on one connection, by wire id. */
struct Window {
    std::map<uint64_t, InFlight> pending;
    uint64_t nextId = 1;

    /** Register @p f under a fresh id; returns its request line. */
    std::string
    issue(const Fixture &fx, const InFlight &f)
    {
        uint64_t id = nextId++;
        pending.emplace(id, f);
        return requestLine(fx, f.req, id);
    }

    /**
     * Handle one reply: an LRU miss sends the profile's upload, a
     * successful upload resends the request, anything else finishes the
     * logical request into @p st. Returns the line to send next, if any.
     */
    std::string
    onReply(const Fixture &fx, const std::string &line, PhaseStats &st)
    {
        json::Value doc;
        Reply rep = classify(line, doc);
        auto it = pending.find(static_cast<uint64_t>(doc.numberOr("id", 0)));
        if (it == pending.end())
            return {}; // a shed reply carries no id; its request stays
                       // pending and fails at the end
        InFlight f = it->second;
        pending.erase(it);
        if (rep == Reply::UnknownProfile && !f.uploading &&
            f.uploads < kMaxUploads) {
            ++f.uploads;
            ++st.reuploads;
            f.uploading = true;
            uint64_t id = nextId++;
            pending.emplace(id, f);
            return uploadLine(fx, f.req.profile, id);
        }
        if (f.uploading && rep == Reply::Ok) {
            f.uploading = false;
            return issue(fx, f);
        }
        st.finish(f.req, rep,
                  1e3 * std::chrono::duration<double>(Clock::now() - f.start)
                            .count(),
                  doc, line);
        return {};
    }

    /** Requests never answered count as failed errors. */
    void
    abandon(PhaseStats &st)
    {
        st.failed += pending.size();
        st.errors += pending.size();
        pending.clear();
    }
};

/**
 * Closed loop on one connection with @p depth logical requests in
 * flight: each finished request frees its slot for the next, so with a
 * deep enough window the server's executors never wait for the client.
 */
void
closedLoop(const Fixture &fx, const std::string &sock, uint64_t seed,
           Clock::time_point end, size_t maxRequests, unsigned depth,
           bool evaluateOnly, PhaseStats &st)
{
    Conn c;
    if (!c.connect(sock)) {
        ++st.sent;
        ++st.failed;
        ++st.errors;
        return;
    }
    Mix mix(fx, seed);
    Window win;
    std::string line;
    bool broken = false;
    while (!broken) {
        while (win.pending.size() < depth && Clock::now() < end &&
               st.sent < maxRequests) {
            Request r = mix.next();
            if (evaluateOnly)
                r.kind = Kind::Evaluate;
            ++st.sent;
            if (!c.send(win.issue(fx, {r, Clock::now()}))) {
                broken = true;
                break;
            }
        }
        if (broken || win.pending.empty() || !c.recv(line, kReplyTimeoutMs))
            break;
        std::string follow = win.onReply(fx, line, st);
        broken = !follow.empty() && !c.send(follow);
    }
    win.abandon(st);
}

PhaseStats
closedPhase(const Fixture &fx, const std::string &sock, uint64_t seed,
            unsigned conns, double seconds, unsigned depth,
            size_t maxRequests = SIZE_MAX, bool evaluateOnly = false)
{
    std::vector<PhaseStats> per(conns);
    std::vector<std::thread> threads;
    Clock::time_point t0 = Clock::now();
    Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    for (unsigned i = 0; i < conns; ++i)
        threads.emplace_back([&, i] {
            closedLoop(fx, sock, mixSeed(seed, i), end, maxRequests, depth,
                       evaluateOnly, per[i]);
        });
    for (auto &t : threads)
        t.join();
    PhaseStats st;
    for (const auto &p : per)
        st.merge(p);
    st.seconds = since(t0);
    return st;
}

/**
 * Open loop on one connection: a sender thread issues requests at their
 * Poisson due times whatever the backlog; a receiver matches replies by
 * id, drives re-uploads and retries, and times each logical request
 * from its due time. Only the sender writes: the receiver hands each
 * follow-up line (an upload or a retry) to it, so the receiver never
 * waits on a full socket and always drains the replies. A receiver that
 * waits to write while the server waits for its replies to be read
 * would deadlock both.
 */
void
openLoop(const Fixture &fx, const std::string &sock, uint64_t seed,
         double rps, double seconds, PhaseStats &st)
{
    Conn c;
    if (!c.connect(sock)) {
        ++st.sent;
        ++st.failed;
        ++st.errors;
        return;
    }
    auto after = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    };
    std::mutex mu; // guards everything below but the connection
    std::condition_variable wake;
    Window win;
    std::deque<std::string> followUps;
    bool scheduleDone = false, receiverDone = false, connBroken = false;

    std::thread sender([&] {
        Mix mix(fx, seed);
        Clock::time_point start = Clock::now();
        Clock::time_point end = start + after(seconds);
        Clock::time_point due = start + after(mix.gap(rps));
        auto ready = [&] {
            return !followUps.empty() || connBroken || receiverDone;
        };
        std::unique_lock<std::mutex> lk(mu);
        scheduleDone = due >= end;
        for (;;) {
            if (scheduleDone)
                wake.wait(lk, ready);
            else
                wake.wait_until(lk, due, ready);
            if (connBroken || receiverDone)
                break;
            std::string line;
            if (!followUps.empty()) {
                line = std::move(followUps.front());
                followUps.pop_front();
            } else {
                st.lateMs.push_back(1e3 * since(due));
                ++st.sent;
                line = win.issue(fx, {mix.next(), due});
                due += after(mix.gap(rps));
                scheduleDone = due >= end;
            }
            lk.unlock();
            bool sent = c.send(line);
            lk.lock();
            if (!sent) {
                connBroken = true;
                break;
            }
        }
    });

    std::string line;
    for (;;) {
        bool drained;
        {
            std::lock_guard<std::mutex> lk(mu);
            if ((scheduleDone && win.pending.empty()) || connBroken)
                break;
            drained = scheduleDone;
        }
        // Once the schedule is done, a reply silent for the whole
        // timeout ends the phase; what is left counts as failed.
        bool got = c.recv(line, 200);
        if (!got && drained && !c.closed())
            got = c.recv(line, kReplyTimeoutMs);
        if (!got) {
            if (drained || c.closed())
                break;
            continue;
        }
        std::lock_guard<std::mutex> lk(mu);
        std::string follow = win.onReply(fx, line, st);
        if (!follow.empty()) {
            followUps.push_back(std::move(follow));
            wake.notify_one();
        }
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        receiverDone = true;
    }
    wake.notify_one();
    c.shutdown(); // unblocks a send the server no longer reads
    sender.join();
    std::lock_guard<std::mutex> lk(mu);
    win.abandon(st);
}

PhaseStats
openPhase(const Fixture &fx, const std::string &sock, uint64_t seed,
          double rps, double seconds)
{
    std::vector<PhaseStats> per(kOpenConns);
    std::vector<std::thread> threads;
    Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < kOpenConns; ++i)
        threads.emplace_back([&, i] {
            openLoop(fx, sock, mixSeed(seed, 100 + i),
                     rps / kOpenConns, seconds, per[i]);
        });
    for (auto &t : threads)
        t.join();
    PhaseStats st;
    for (const auto &p : per)
        st.merge(p);
    st.seconds = since(t0);
    return st;
}

/** In-process re-evaluation of the sampled evaluate answers. */
size_t
sampleMismatches(const Fixture &fx, const std::vector<EvalSample> &samples)
{
    std::vector<std::unique_ptr<EvalContext>> ctx(kProfiles);
    size_t bad = 0;
    for (const EvalSample &s : samples) {
        if (!ctx[s.profile])
            ctx[s.profile] = std::make_unique<EvalContext>(fx.profiles[s.profile]);
        ModelResult m = evaluateModel(*ctx[s.profile], fx.configs[s.config].cfg);
        char want[32], got[32];
        std::snprintf(want, sizeof want, "%.10g", m.cpiPerUop());
        std::snprintf(got, sizeof got, "%.10g", s.cpi);
        if (std::strcmp(want, got) != 0)
            ++bad;
    }
    return bad;
}

/** Requests per second that succeeded within their op's limit. */
double
goodput(const PhaseStats &st)
{
    return st.seconds > 0 ? st.withinLimit / st.seconds : 0;
}

/** Fold one slice into a phase's totals. */
void
addSlice(PhaseStats &total, const PhaseStats &slice)
{
    double secs = total.seconds + slice.seconds;
    total.merge(slice);
    total.seconds = secs;
}

/** p99 of the server's queue-wait histogram, ms. */
double
queueWaitP99Ms(const serve::Server &srv)
{
    json::Value doc;
    if (!json::parse(srv.metricsJson(), doc).isOk())
        return -1;
    for (const json::Value &m : doc["metrics"].array())
        if (m.stringOr("name", "") == "serve_queue_wait_ns")
            return m.numberOr("p99", 0) / 1e6;
    return -1;
}

/** Percentile note with its sample count. */
void
notePct(Report &rep, const std::string &name, const std::vector<double> &v,
        double q)
{
    rep.note(name, quantile(v, q), "ms",
             "n=" + std::to_string(v.size()) + ", " +
                 std::to_string(static_cast<long>(
                     std::floor(v.size() * (1 - q)))) +
                 " beyond");
}

/** Live server plus the fixture; the set-up step. */
struct Service {
    Fixture fx;
    std::unique_ptr<serve::Server> server;
    std::string sock;
};

void
startService(const Args &args, Service &svc)
{
    if (svc.server)
        svc.server->stop();
    svc.fx = makeFixture(args);
    svc.sock = args.workdir + "/serve.sock";
    serve::ServerOptions so;
    so.socketPath = svc.sock;
    so.workers = nproc();
    // A host stall of a few tens of ms lets the open loop's backlog
    // pass 64 queued requests (seen at 35% load), and a shed request
    // fails the run; 256 is about 35 ms of work at capacity, and a
    // request that waits that long misses its latency limit instead.
    so.maxQueue = 256;
    so.maxProfiles = kLruSlots;
    svc.server = std::make_unique<serve::Server>(so);
    Status st = svc.server->start();
    if (!st.isOk())
        throw std::runtime_error("server start: " + st.message());
    // Warm the LRU with the most popular profiles.
    Conn c;
    std::string line;
    json::Value doc;
    if (!c.connect(svc.sock))
        throw std::runtime_error("cannot connect to " + svc.sock);
    for (size_t i = 0; i < kLruSlots; ++i)
        if (!c.send(uploadLine(svc.fx, i, i + 1)) ||
            !c.recv(line, kReplyTimeoutMs) ||
            classify(line, doc) != Reply::Ok)
            throw std::runtime_error("warm-up upload failed");
}

void
reportPhase(Report &rep, const char *name, const PhaseStats &st)
{
    rep.phase(name, st.sent, st.ok, st.failed);
    rep.note(std::string(name) + ".reuploads",
             static_cast<double>(st.reuploads), "count",
             "LRU misses re-uploaded (not failures)");
    rep.note(std::string(name) + ".errors", static_cast<double>(st.errors),
             "count", "failed requests other than LRU misses past " +
                          std::to_string(kMaxUploads) + " re-uploads");
}

/**
 * The response checks: no errors at all, and requests that still missed
 * the LRU after every re-upload stay rare.
 */
void
checkResponses(Report &rep, const std::vector<const PhaseStats *> &phases)
{
    uint64_t sent = 0, failed = 0, errors = 0;
    for (const PhaseStats *p : phases) {
        sent += p->sent;
        failed += p->failed;
        errors += p->errors;
    }
    rep.check(errors == 0,
              "every response parses and is ok or an LRU miss; none lost");
    rep.check(failed * 100 <= sent,
              "at most 1% of requests still miss the LRU after " +
                  std::to_string(kMaxUploads) + " re-uploads");
}

} // namespace

int
runServeMixed(const Args &args)
{
    Report rep(args.workload);
    const unsigned n = nproc();
    Service svc;
    std::vector<double> setupS;
    timeSetup(setupS, [&] { startService(args, svc); });
    RssPhases rss;
    rss.endSetup();
    const Fixture &fx = svc.fx;

    if (!args.trace) {
        // Half-second slices cycle through the open loop at each load,
        // each followed by a closed-loop slice (fresh connections each),
        // so a slow stretch of the host hits a few slices of every
        // phase; each gated metric is a median over its slices.
        constexpr double kSlice = 0.5;
        std::vector<PhaseStats> open(kNumLoads);
        std::vector<std::vector<double>> openP50(kNumLoads);
        PhaseStats sat;
        std::vector<double> satP50, satGoodput;
        constexpr double kCycle = 2 * kNumLoads * kSlice;
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i == 0 || since(t0) + kCycle / 2 < args.seconds;
             ++i)
            for (size_t l = 0; l < kNumLoads; ++l) {
                uint64_t slice = 2 * (i * kNumLoads + l);
                PhaseStats o = openPhase(fx, svc.sock,
                                         mixSeed(args.seed, slice),
                                         kLoads[l] * kCapacityRps, kSlice);
                openP50[l].push_back(median(o.latMs[size_t(Kind::Evaluate)]));
                addSlice(open[l], o);
                PhaseStats c = closedPhase(fx, svc.sock,
                                           mixSeed(args.seed, slice + 1), n,
                                           kSlice, kPipelineDepth);
                satP50.push_back(median(c.latMs[size_t(Kind::Evaluate)]));
                satGoodput.push_back(goodput(c));
                addSlice(sat, c);
            }
        serve::ServerStats ss = svc.server->stats();
        double qwait = queueWaitP99Ms(*svc.server);
        svc.server->stop();
        reportRss(rep, rss);

        rep.metric("throughput_per_s", median(satGoodput), "1/s");
        rep.metric("latency_p50_ms", median(openP50[kGatedLoad]), "ms");
        rep.note("serve_goodput_rps", median(satGoodput), "req/s",
                 std::to_string(n) + " connections x " +
                     std::to_string(kPipelineDepth) +
                     " in flight, median of " +
                     std::to_string(satGoodput.size()) + " slices");
        rep.note("saturated_evaluate_p50_ms", median(satP50), "ms",
                 "closed loop, median over " +
                     std::to_string(satP50.size()) + " slices");
        double best = 0;
        for (size_t l = 0; l < kNumLoads; ++l) {
            const PhaseStats &o = open[l];
            const auto &eval = o.latMs[size_t(Kind::Evaluate)];
            const auto &sweep = o.latMs[size_t(Kind::Sweep)];
            double rps = kLoads[l] * kCapacityRps;
            std::string at = "@" + std::to_string(int(rps)) + "rps";
            std::printf("  open loop %.0f req/s (%.0f%% of capacity %.0f "
                        "req/s), %.1f s in %zu slices%s\n",
                        rps, 100 * kLoads[l], kCapacityRps, o.seconds,
                        openP50[l].size(),
                        l == kGatedLoad ? ", gated" : "");
            rep.note("serve_evaluate_p50_ms" + at, median(openP50[l]), "ms",
                     "from due time, median over slices of " +
                         std::to_string(eval.size()) + " requests");
            notePct(rep, "serve_evaluate_p99_ms" + at, eval, 0.99);
            notePct(rep, "serve_sweep_p50_ms" + at, sweep, 0.50);
            notePct(rep, "serve_sweep_p99_ms" + at, sweep, 0.99);
            notePct(rep, "generator_late_p99_ms" + at, o.lateMs, 0.99);
            reportPhase(rep, ("open" + at).c_str(), o);
            // Within the limits: every request succeeded and the p99s
            // meet the per-op limits (a growing backlog breaks them).
            if (o.failed == 0 &&
                quantile(eval, 0.99) <= limitMs(Kind::Evaluate) &&
                quantile(sweep, 0.99) <= limitMs(Kind::Sweep))
                best = rps;
        }
        rep.note("max_rate_within_limits_rps", best, "req/s",
                 "highest offered load whose evaluate/sweep p99 meet "
                 "5/50 ms with no failed request");
        rep.note("queue_wait_p99_ms", qwait, "ms", "server histogram");
        rep.note("lru_hit_frac",
                 double(ss.lruHits) / std::max<uint64_t>(
                                          1, ss.lruHits + ss.lruMisses),
                 "ratio");
        rep.note("shed", static_cast<double>(ss.shed), "count");
        reportPhase(rep, "closed-nproc", sat);

        std::vector<const PhaseStats *> all{&sat};
        std::vector<EvalSample> samples = sat.samples;
        for (const PhaseStats &o : open) {
            all.push_back(&o);
            samples.insert(samples.end(), o.samples.begin(), o.samples.end());
        }
        checkResponses(rep, all);
        rep.check(!samples.empty() && sampleMismatches(fx, samples) == 0,
                  std::to_string(samples.size()) +
                      " sampled evaluate CPIs equal the in-process model "
                      "at %.10g");
        timeSetup(setupS, [&] { startService(args, svc); });
        svc.server->stop();
        rep.metric("setup_s", median(setupS), "s");
        return rep.finish();
    }

    // Traced run. Overhead: the same evaluate-only request sequence on
    // one connection with and without the recorder, after one pass that
    // brings the LRU and the server's memo tables to a steady state.
    constexpr size_t kProbe = 3000;
    closedPhase(fx, svc.sock, mixSeed(args.seed, 3), 1, 60, 1, kProbe, true);
    PhaseStats plain = closedPhase(fx, svc.sock, mixSeed(args.seed, 3), 1,
                                   60, 1, kProbe, true);
    obs::SpanRecorder rec(1 << 20);
    rec.install();
    PhaseStats traced = closedPhase(fx, svc.sock, mixSeed(args.seed, 3), 1,
                                    60, 1, kProbe, true);
    PhaseStats open = openPhase(fx, svc.sock, args.seed,
                                kLoads[kGatedLoad] * kCapacityRps, 2.0);

    // Isolating calls.
    double ctxUs = 0;
    {
        std::vector<std::unique_ptr<EvalContext>> ctx;
        for (const Profile &p : fx.profiles) {
            ctx.push_back(std::make_unique<EvalContext>(p));
            for (const ConfigPick &c : fx.configs) // warm the memo
                evaluateModel(*ctx.back(), c.cfg);
        }
        Clock::time_point t0 = Clock::now();
        size_t calls = 0;
        {
            obs::ScopedSpan span("model.evaluateModel");
            for (int r = 0; r < 4; ++r)
                for (size_t i = 0; i < ctx.size(); ++i)
                    for (const ConfigPick &c : fx.configs) {
                        evaluateModel(*ctx[i], c.cfg);
                        ++calls;
                    }
        }
        ctxUs = 1e6 * since(t0) / calls;
    }
    double parseMs = 0;
    {
        std::vector<std::string> texts;
        for (const Profile &p : fx.profiles) {
            std::ostringstream os;
            writeProfile(p, os);
            texts.push_back(os.str());
        }
        Clock::time_point t0 = Clock::now();
        size_t parsed = 0;
        {
            obs::ScopedSpan span("profile_io.parseProfile");
            for (const std::string &t : texts) {
                Profile p;
                parsed += parseProfile(t, p).isOk();
            }
        }
        rep.check(parsed == texts.size(), "uploaded profile texts parse");
        parseMs = 1e3 * since(t0) / texts.size();
    }
    double profMs = 0;
    {
        std::vector<Trace> traces;
        for (const std::string &w : fx.serverWorkloads)
            traces.push_back(
                generateWorkload(suiteWorkload(w), kServerProfileUops));
        Clock::time_point t0 = Clock::now();
        {
            obs::ScopedSpan span("profiler.profileTrace");
            for (const Trace &t : traces)
                profileTrace(t);
        }
        profMs = 1e3 * since(t0) / traces.size();
    }
    double jsonUs = 0;
    {
        std::vector<std::string> lines = traced.sampleLines;
        lines.insert(lines.end(), open.sampleLines.begin(),
                     open.sampleLines.end());
        Clock::time_point t0 = Clock::now();
        size_t parsed = 0;
        {
            obs::ScopedSpan span("util.json_parse");
            for (int r = 0; r < 20; ++r)
                for (const std::string &l : lines) {
                    json::Value v;
                    parsed += json::parse(l, v).isOk();
                }
        }
        jsonUs = parsed ? 1e6 * since(t0) / parsed : 0;
    }
    serve::ServerStats ss;
    double qwait;
    {
        obs::ScopedSpan span("serve.Server.stats");
        ss = svc.server->stats();
        qwait = queueWaitP99Ms(*svc.server);
    }
    obs::SpanRecorder::uninstall();
    svc.server->stop();

    double rttUs = 1e3 * median(plain.latMs[size_t(Kind::Evaluate)]);
    rep.metric("model.ctx_eval_us", ctxUs, "us");
    rep.metric("serve.stack_us", rttUs - ctxUs, "us");
    rep.metric("serve.queue_wait_p99_ms", qwait, "ms");
    rep.metric("serve.lru_hit_frac",
               double(ss.lruHits) /
                   std::max<uint64_t>(1, ss.lruHits + ss.lruMisses),
               "ratio");
    rep.metric("serve.shed_frac",
               double(ss.shed) / std::max<uint64_t>(1, ss.requests), "ratio");
    rep.metric("profile_io.parse_ms", parseMs, "ms");
    rep.metric("profiler.serve_profile_ms", profMs, "ms");
    rep.metric("util.json_parse_us", jsonUs, "us");
    rep.metric("bench.generator_late_p99_ms", quantile(open.lateMs, 0.99),
               "ms");
    reportPhase(rep, "probe-untraced", plain);
    reportPhase(rep, "probe-traced", traced);
    reportPhase(rep, "open-loop-traced", open);
    checkResponses(rep, {&plain, &traced, &open});
    reportTrace(rep, args, rec,
                100.0 * (traced.seconds - plain.seconds) / plain.seconds);
    fillUnusedLayerMetrics(rep);
    return rep.finish();
}

} // namespace pb
