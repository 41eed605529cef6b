// Tests for actor-handle passing (Section 3.1: "A handle to an actor can be
// passed to other actors or tasks, making it possible for them to invoke
// methods on that actor") and the GCS-allocated method-chain indices that
// make it sound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/clock.h"
#include "runtime/api.h"

namespace ray {
namespace {

class SharedLog {
 public:
  int Append(std::string entry) {
    entries_.push_back(std::move(entry));
    return static_cast<int>(entries_.size());
  }
  std::vector<std::string> Entries() { return entries_; }

 private:
  std::vector<std::string> entries_;
};

// A task that receives an actor handle and calls methods on it.
int WriteViaHandle(ActorHandle log, std::string tag, int count) {
  Ray ray = Ray::Current();
  ObjectRef<int> last;
  for (int i = 0; i < count; ++i) {
    last = log.Call<int>("Append", tag + ":" + std::to_string(i));
  }
  auto n = ray.Get(last, 30'000'000);
  RAY_CHECK(n.ok()) << n.status().ToString();
  return *n;
}

class ActorHandleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_nodes = 3;
    config.scheduler.total_resources = ResourceSet::Cpu(2);
    config.net.control_latency_us = 5;
    cluster_ = std::make_unique<Cluster>(config);
    cluster_->RegisterActorClass<SharedLog>("SharedLog");
    cluster_->RegisterActorMethod("SharedLog", "Append", &SharedLog::Append);
    cluster_->RegisterActorMethod("SharedLog", "Entries", &SharedLog::Entries,
                                  /*read_only=*/true);
    cluster_->RegisterFunction("write_via_handle", &WriteViaHandle);
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ActorHandleTest, HandlePassedIntoTask) {
  Ray ray = Ray::OnNode(*cluster_, 0);
  ActorHandle log = ray.CreateActor("SharedLog");
  // The handle rides into the task as an ordinary argument.
  auto n = ray.Get(ray.Call<int>("write_via_handle", log, std::string("task"), 5), 30'000'000);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 5);
  auto entries = ray.Get(log.Call<std::vector<std::string>>("Entries"), 10'000'000);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 5u);
  EXPECT_EQ((*entries)[0], "task:0");
}

TEST_F(ActorHandleTest, DriverAndTaskInterleaveOnOneChain) {
  Ray ray = Ray::OnNode(*cluster_, 0);
  ActorHandle log = ray.CreateActor("SharedLog");
  // Driver writes while a task holding a handle copy also writes; every
  // method must apply exactly once on the single chain.
  auto task_done = ray.Call<int>("write_via_handle", log, std::string("remote"), 10);
  for (int i = 0; i < 10; ++i) {
    log.Call<int>("Append", "driver:" + std::to_string(i));
  }
  ASSERT_TRUE(ray.Get(task_done, 60'000'000).ok());
  auto entries = ray.Get(log.Call<std::vector<std::string>>("Entries"), 30'000'000);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 20u);
  int driver_seen = 0;
  int remote_seen = 0;
  for (const auto& e : *entries) {
    if (e.rfind("driver:", 0) == 0) {
      ++driver_seen;
    }
    if (e.rfind("remote:", 0) == 0) {
      ++remote_seen;
    }
  }
  EXPECT_EQ(driver_seen, 10);
  EXPECT_EQ(remote_seen, 10);
}

TEST_F(ActorHandleTest, ConcurrentCallersGetDistinctChainIndices) {
  Ray ray = Ray::OnNode(*cluster_, 0);
  ActorHandle log = ray.CreateActor("SharedLog");
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      ActorHandle copy = log;
      for (int i = 0; i < 10; ++i) {
        copy.Call<int>("Append", std::to_string(t));
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  auto entries = ray.Get(log.Call<std::vector<std::string>>("Entries"), 60'000'000);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 40u) << "GCS chain indices must never collide";
}

// The pattern the paper's ES implementation uses (Section 5.3.1): an
// aggregation tree where inner actors hold handles to the root.
class Accum {
 public:
  float Add(float x) { return total_ += x; }
  float Total() { return total_; }

 private:
  float total_ = 0;
};

float LeafWork(ActorHandle root, float value) {
  Ray ray = Ray::Current();
  auto r = ray.Get(root.Call<float>("Add", value), 30'000'000);
  RAY_CHECK(r.ok());
  return *r;
}

TEST_F(ActorHandleTest, AggregationTreePattern) {
  cluster_->RegisterActorClass<Accum>("Accum");
  cluster_->RegisterActorMethod("Accum", "Add", &Accum::Add);
  cluster_->RegisterActorMethod("Accum", "Total", &Accum::Total, /*read_only=*/true);
  cluster_->RegisterFunction("leaf_work", &LeafWork);

  Ray ray = Ray::OnNode(*cluster_, 0);
  ActorHandle root = ray.CreateActor("Accum");
  std::vector<ObjectRef<float>> leaves;
  for (int i = 1; i <= 8; ++i) {
    leaves.push_back(ray.Call<float>("leaf_work", root, static_cast<float>(i)));
  }
  auto done = ray.GetAll(leaves, 60'000'000);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  auto total = ray.Get(root.Call<float>("Total"), 10'000'000);
  ASSERT_TRUE(total.ok());
  EXPECT_FLOAT_EQ(*total, 36.0f);  // 1+2+...+8
}

class Counter {
 public:
  int Bump(int delta) { return total_ += delta; }

 private:
  int total_ = 0;
};

// --- routed-call lineage: durable by the time Call returns ---

// Holds the actor for `ms` so calls queued behind it stay kPending.
class Sleeper {
 public:
  int Nap(int ms) {
    SleepMicros(static_cast<int64_t>(ms) * 1000);
    return ++naps_;
  }
  int Naps() { return naps_; }

 private:
  int naps_ = 0;
};

// Reads back, right after Call returned, the lineage record the routed
// submit committed for the call producing `ref`.
void ExpectRoutedLineage(Cluster& cluster, const ActorId& actor, const NodeId& home,
                         const ObjectId& ref, bool stateful) {
  gcs::GcsTables& tables = cluster.tables();
  auto task = tables.objects.GetCreatingTask(ref);
  ASSERT_TRUE(task.ok()) << "return's creating-task link missing";
  auto bytes = tables.tasks.GetSpec(*task);
  ASSERT_TRUE(bytes.ok()) << "spec missing";
  TaskSpec spec = TaskSpec::Deserialize(*bytes);
  EXPECT_EQ(spec.id, *task);
  auto state = tables.tasks.GetState(*task);
  ASSERT_TRUE(state.ok()) << "state missing";
  EXPECT_EQ(state->first, gcs::TaskState::kPending);
  EXPECT_EQ(state->second, home) << "kPending must name the actor's node";
  auto log = tables.actors.GetMethodLog(actor);
  ASSERT_TRUE(log.ok());
  bool logged = std::find(log->begin(), log->end(), *task) != log->end();
  auto cursor = tables.objects.GetCreatingTask(spec.ResultCursor());
  if (stateful) {
    ASSERT_TRUE(cursor.ok()) << "cursor's creating-task link missing";
    EXPECT_EQ(*cursor, *task);
    EXPECT_TRUE(logged) << "method-log entry missing";
  } else {
    // A snapshot shares its cursor with the stateful call it reads after.
    EXPECT_FALSE(cursor.ok() && *cursor == *task);
    EXPECT_FALSE(logged) << "read-only calls are not replayed";
  }
}

class RoutedLineageTest : public ActorHandleTest {
 protected:
  void SetUp() override {
    ActorHandleTest::SetUp();
    cluster_->RegisterActorClass<Sleeper>("Sleeper");
    cluster_->RegisterActorMethod("Sleeper", "Nap", &Sleeper::Nap);
    cluster_->RegisterActorMethod("Sleeper", "Naps", &Sleeper::Naps, /*read_only=*/true);
  }

  // A live Sleeper pinned to a node other than the driver's, so kPending at
  // the submitter and kPending at the actor's node differ; every later call
  // takes the fast route.
  ActorHandle LiveSleeper(Ray& ray, NodeId* home) {
    *home = cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
    ActorHandle actor = ray.CreateActor("Sleeper", ResourceSet{{"CPU", 1}, {"tag", 1}});
    auto ready = ray.Get(actor.Call<int>("Naps"), 30'000'000);
    EXPECT_TRUE(ready.ok());
    auto loc = cluster_->tables().actors.GetLocation(actor.id());
    EXPECT_TRUE(loc.ok() && *loc == *home);
    return actor;
  }
};

TEST_F(RoutedLineageTest, StatefulCallIsDurableWhenCallReturns) {
  Ray ray = Ray::OnNode(*cluster_, 0);
  NodeId home;
  ActorHandle actor = LiveSleeper(ray, &home);
  auto hold = actor.Call<int>("Nap", 500);
  auto queued = actor.Call<int>("Nap", 0);
  ExpectRoutedLineage(*cluster_, actor.id(), home, queued.id(), /*stateful=*/true);
  ExpectRoutedLineage(*cluster_, actor.id(), home, hold.id(), /*stateful=*/true);
  auto naps = ray.Get(queued, 30'000'000);
  ASSERT_TRUE(naps.ok());
  EXPECT_EQ(*naps, 2);
}

TEST_F(RoutedLineageTest, ReadOnlyCallIsDurableWhenCallReturns) {
  Ray ray = Ray::OnNode(*cluster_, 0);
  NodeId home;
  ActorHandle actor = LiveSleeper(ray, &home);
  auto hold = actor.Call<int>("Nap", 500);
  auto snapshot = actor.Call<int>("Naps");
  ExpectRoutedLineage(*cluster_, actor.id(), home, snapshot.id(), /*stateful=*/false);
  auto naps = ray.Get(snapshot, 30'000'000);
  ASSERT_TRUE(naps.ok());
  EXPECT_EQ(*naps, 1);
}

// Kills the actor's node while a burst of calls is being submitted: each
// call must apply exactly once, so the running totals come back as 1..N —
// a lost call would leave a result unresolved, a doubled one skip a value.
TEST(RoutedBurstTest, ActorNodeKilledMidBurstDeliversEveryResultOnce) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.scheduler.total_resources = ResourceSet::Cpu(2);
  config.net.latency_us = 10;
  config.net.control_latency_us = 5;
  Cluster cluster(config);
  cluster.RegisterActorClass<Counter>("Counter");
  cluster.RegisterActorMethod("Counter", "Bump", &Counter::Bump);
  // Pin the actor to a tagged node so the kill never takes the driver, and
  // give recovery a second tagged node to land on.
  cluster.AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  cluster.AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  Ray ray = Ray::OnNode(cluster, 0);
  ActorHandle counter = ray.CreateActor("Counter", ResourceSet{{"CPU", 1}, {"tag", 1}});
  ASSERT_TRUE(ray.Get(counter.Call<int>("Bump", 0), 30'000'000).ok());
  auto home = cluster.tables().actors.GetLocation(counter.id());
  ASSERT_TRUE(home.ok());
  ASSERT_NE(*home, cluster.node(0).id());

  constexpr int kCalls = 60;
  std::vector<ObjectRef<int>> refs(kCalls);
  std::atomic<int> submitted{0};
  std::thread burst([&] {
    for (int i = 0; i < kCalls; ++i) {
      refs[i] = counter.Call<int>("Bump", 1);
      submitted.store(i + 1);
      SleepMicros(500);
    }
  });
  while (submitted.load() < kCalls / 3) {
    SleepMicros(200);
  }
  cluster.KillNode(*home);
  burst.join();
  for (int i = 0; i < kCalls; ++i) {
    auto r = ray.Get(refs[i], 60'000'000);
    ASSERT_TRUE(r.ok()) << "call " << i << ": " << r.status().ToString();
    EXPECT_EQ(*r, i + 1) << "call " << i;
  }
}

// Actor density on the fiber runtime: one node hosts 10k actors (each a
// parked fiber, not an OS thread), they all stay resident simultaneously,
// and method calls against a sample still complete. Thread-per-actor would
// need 10k OS threads here; sanitizer builds scale the count down because
// per-fiber sanitizer state makes residency itself the expensive part.
TEST(ActorDensityTest, TenThousandResidentActorsOnOneNode) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const int kActors = 1'000;
#else
  const int kActors = 10'000;
#endif
  const int kWorkers = 8;
  ClusterConfig config;
  config.num_nodes = 1;
  // Each actor creation holds CPU:1 for life; budget all of them + workers.
  config.scheduler.total_resources = ResourceSet::Cpu(kActors + kWorkers);
  config.scheduler.num_workers = kWorkers;
  config.scheduler.spillover_queue_threshold = 1'000'000;
  config.net.control_latency_us = 5;
  Cluster cluster(config);
  cluster.RegisterActorClass<Counter>("Counter");
  cluster.RegisterActorMethod("Counter", "Bump", &Counter::Bump);

  Ray ray = Ray::OnNode(cluster, 0);
  std::vector<ActorHandle> actors;
  actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(ray.CreateActor("Counter", ResourceSet::Cpu(1)));
  }
  Node& node = cluster.node(0);
  const int64_t deadline = NowMicros() + 300'000'000;
  while (node.NumLiveActors() < static_cast<size_t>(kActors) && NowMicros() < deadline) {
    SleepMicros(5'000);
  }
  ASSERT_EQ(node.NumLiveActors(), static_cast<size_t>(kActors));
  // All actor fibers are resident on the scheduler's fiber runtime at once
  // (workers + one fiber per actor), and residency means parked, not
  // spinning: the park counter must have grown with the fleet.
  EXPECT_GE(node.scheduler().fibers().NumResident(), static_cast<size_t>(kActors));
  EXPECT_GE(node.scheduler().fibers().NumParks(), static_cast<uint64_t>(kActors));

  // A sample of calls across the fleet still completes while everyone else
  // stays parked.
  std::vector<ObjectRef<int>> refs;
  const size_t stride = static_cast<size_t>(kActors) / 101 + 1;
  for (size_t i = 0; i < actors.size(); i += stride) {
    refs.push_back(actors[i].Call<int>("Bump", 1));
  }
  for (auto& ref : refs) {
    auto r = ray.Get(ref, 60'000'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, 1);
  }
}

}  // namespace
}  // namespace ray
